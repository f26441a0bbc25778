package openmetrics

import (
	"bufio"
	"encoding/json"
	"io"
)

// The raw event logs beside the document (spans.jsonl, series.jsonl,
// waits.jsonl, exemplars.jsonl) are JSON lines: one self-describing object
// per line, whatever the record type.

// WriteJSONL renders items one JSON object per line.
func WriteJSONL[T any](w io.Writer, items []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range items {
		if err := enc.Encode(&items[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a stream of JSON objects into a slice.
func ReadJSONL[T any](r io.Reader) ([]T, error) {
	var out []T
	dec := json.NewDecoder(r)
	for {
		var item T
		if err := dec.Decode(&item); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, err
		}
		out = append(out, item)
	}
}
