package pmemtrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The JSONL log is a stream of self-contained records, one JSON object per
// line. Device events carry rec:"ev"; op spans (appended after the workload
// so the auditor can attribute events offline) carry rec:"span". Unknown
// record types are skipped on read, so the format can grow without breaking
// old tools.

type jsonlRecord struct {
	Rec string `json:"rec"`

	// rec:"ev" fields.
	Seq   uint64 `json:"seq,omitempty"`
	TS    int64  `json:"ts,omitempty"`
	Dev   uint64 `json:"dev,omitempty"`
	Kind  string `json:"kind,omitempty"`
	Off   int64  `json:"off,omitempty"`
	Len   int64  `json:"len,omitempty"`
	TID   *int32 `json:"tid,omitempty"`
	Key   *int16 `json:"key,omitempty"`
	Cause string `json:"cause,omitempty"`

	// rec:"span" fields.
	Op    string `json:"op,omitempty"`
	Start int64  `json:"start_ns,omitempty"`
	Dur   int64  `json:"dur_ns,omitempty"`
}

func writeEventLine(w io.Writer, ev Event) error {
	rec := jsonlRecord{
		Rec:  "ev",
		Seq:  ev.Seq,
		TS:   ev.TS,
		Dev:  ev.Dev,
		Kind: ev.Kind.String(),
		Off:  ev.Off,
		Len:  ev.Len,
	}
	if ev.TID >= 0 {
		rec.TID = &ev.TID
	}
	if ev.Key >= 0 {
		rec.Key = &ev.Key
	}
	rec.Cause = ev.Cause
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteJSONL writes events followed by spans as a JSONL log.
func WriteJSONL(w io.Writer, events []Event, spans []OpSpan) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		if err := writeEventLine(bw, ev); err != nil {
			return err
		}
	}
	if err := WriteSpansJSONL(bw, spans); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteSpansJSONL appends op spans to a JSONL log (used after a
// spill-recorded workload, when the events are already on disk).
func WriteSpansJSONL(w io.Writer, spans []OpSpan) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		tid := int32(s.TID)
		if err := enc.Encode(jsonlRecord{Rec: "span", TID: &tid, Op: s.Op, Start: s.Start, Dur: s.Dur}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL log back into device events and op spans.
func ReadJSONL(r io.Reader) ([]Event, []OpSpan, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var events []Event
	var spans []OpSpan
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, nil, fmt.Errorf("pmemtrace: line %d: %w", lineNo, err)
		}
		switch rec.Rec {
		case "ev":
			kind, ok := KindFromString(rec.Kind)
			if !ok {
				return nil, nil, fmt.Errorf("pmemtrace: line %d: unknown event kind %q", lineNo, rec.Kind)
			}
			ev := Event{Seq: rec.Seq, TS: rec.TS, Dev: rec.Dev, Kind: kind, Off: rec.Off, Len: rec.Len, TID: -1, Key: -1, Cause: rec.Cause}
			if rec.TID != nil {
				ev.TID = *rec.TID
			}
			if rec.Key != nil {
				ev.Key = *rec.Key
			}
			events = append(events, ev)
		case "span":
			tid := -1
			if rec.TID != nil {
				tid = int(*rec.TID)
			}
			spans = append(spans, OpSpan{TID: tid, Op: rec.Op, Start: rec.Start, Dur: rec.Dur})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return events, spans, nil
}
