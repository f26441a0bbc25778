package pmemtrace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Record logs: an observation session writes each root span (internal/spans)
// and each device event (this package) once, as one binary record, and every
// other per-op view is decoded from the two files. A log is a magic string
// naming its record type, then its records, each its payload's length as a
// uvarint followed by the payload. A payload is fields in a fixed order:
// integers as encoding/binary varints, strings as their index in the log's
// string table. A string's first use in the log appends it to the table and
// carries its bytes (the new index, the length, the bytes), so a reader
// rebuilds the table as it goes.

// LogWriter appends records to one log. It is not safe for concurrent use:
// the collector that owns it serializes its records. A write error is kept
// by the buffered writer, which then accepts nothing more, and Flush reports
// it.
type LogWriter struct {
	w    *bufio.Writer
	rec  []byte // the record being built
	hdr  [binary.MaxVarintLen64]byte
	strs map[string]uint64 // the log's string table
}

// NewLogWriter starts a log of magic's record type on w.
func NewLogWriter(w io.Writer, magic string) *LogWriter {
	l := &LogWriter{w: bufio.NewWriterSize(w, 64<<10), strs: map[string]uint64{}}
	_, _ = l.w.WriteString(magic) // a failed write resurfaces at Flush
	return l
}

// Int appends a signed field to the record being built.
func (l *LogWriter) Int(v int64) { l.rec = binary.AppendVarint(l.rec, v) }

// Uint appends an unsigned field.
func (l *LogWriter) Uint(v uint64) { l.rec = binary.AppendUvarint(l.rec, v) }

// Str appends a string field through the log's string table.
func (l *LogWriter) Str(s string) {
	id, ok := l.strs[s]
	if !ok {
		id = uint64(len(l.strs))
		l.strs[s] = id
	}
	l.Uint(id)
	if !ok {
		l.Uint(uint64(len(s)))
		l.rec = append(l.rec, s...)
	}
}

// End frames the record built since the previous End and queues it.
func (l *LogWriter) End() {
	_, _ = l.w.Write(binary.AppendUvarint(l.hdr[:0], uint64(len(l.rec)))) // errors resurface at Flush
	_, _ = l.w.Write(l.rec)
	l.rec = l.rec[:0]
}

// Flush writes the queued records and returns the log's first write error.
func (l *LogWriter) Flush() error { return l.w.Flush() }

// LogReader decodes a log record by record: Next loads one, and its fields
// are read back in the order they were written.
type LogReader struct {
	log  []byte // the records not yet loaded
	rec  []byte // the loaded record's unread bytes
	strs []string
	err  error
}

// NewLogReader opens a log of magic's record type.
func NewLogReader(log []byte, magic string) (*LogReader, error) {
	if !bytes.HasPrefix(log, []byte(magic)) {
		return nil, fmt.Errorf("not a %q record log", magic)
	}
	return &LogReader{log: log[len(magic):]}, nil
}

var errShort = errors.New("record shorter than its fields")

// Next loads the next record. It reports false at the end of the log or on an
// error, which Err then returns.
func (l *LogReader) Next() bool {
	if l.err == nil && len(l.rec) > 0 {
		l.err = errors.New("record longer than its fields")
	}
	if l.err != nil || len(l.log) == 0 {
		return false
	}
	n, k := binary.Uvarint(l.log)
	if k <= 0 || n > uint64(len(l.log)-k) {
		l.err = errors.New("log ends inside a record")
		return false
	}
	l.rec, l.log = l.log[k:k+int(n)], l.log[k+int(n):]
	return true
}

// Int reads a signed field.
func (l *LogReader) Int() int64 {
	v, n := binary.Varint(l.rec)
	l.skip(n)
	return v
}

// Uint reads an unsigned field.
func (l *LogReader) Uint() uint64 {
	v, n := binary.Uvarint(l.rec)
	l.skip(n)
	return v
}

// Str reads a string field, growing the string table on a first use.
func (l *LogReader) Str() string {
	id := l.Uint()
	if l.err == nil && id < uint64(len(l.strs)) {
		return l.strs[id]
	}
	n := l.Uint()
	if l.err != nil || id != uint64(len(l.strs)) || n > uint64(len(l.rec)) {
		l.skip(0)
		return ""
	}
	s := string(l.rec[:n])
	l.rec = l.rec[n:]
	l.strs = append(l.strs, s)
	return s
}

// skip consumes a field of n bytes; n <= 0 is a field the record lacks.
func (l *LogReader) skip(n int) {
	if n > 0 {
		l.rec = l.rec[n:]
		return
	}
	if l.err == nil {
		l.err = errShort
	}
	l.rec = nil
}

// Err returns the first decoding error, nil at a clean end of the log.
func (l *LogReader) Err() error { return l.err }
