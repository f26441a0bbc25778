package tpcc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// To encoding/json, the reference, a text field is the string it holds.
func (t text) MarshalText() ([]byte, error) { return t, nil }

func (t *text) UnmarshalText(b []byte) error {
	*t = append((*t)[:0], b...)
	return nil
}

// shapes returns a zero row of every shape.
func shapes() []row {
	return []row{
		&warehouseRow{}, &districtRow{}, &customerRow{}, &itemRow{},
		&stockRow{}, &orderRow{}, &orderLineRow{}, &historyRow{},
	}
}

// fill sets every field of the row r points to: the strings from s, the
// floats from f, the integers from n, each called once per field.
func fill(r row, s func() string, f func() float64, n func() int64) {
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Slice:
			fv.SetBytes([]byte(s()))
		case reflect.Float64:
			fv.SetFloat(f())
		default:
			fv.SetInt(n())
		}
	}
}

// checkAgainstJSON holds the codec to encoding/json on one row value:
// appendJSON writes Marshal's bytes, and parse reads them back to what
// Unmarshal reads — the value itself when its strings are UTF-8.
func checkAgainstJSON(t *testing.T, r row) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("reference: Marshal(%+v): %v", r, err)
	}
	if got := r.appendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("appendJSON(%+v)\n got %s\nwant %s", r, got, want)
	}
	back := reflect.New(reflect.TypeOf(r).Elem()).Interface().(row)
	if err := back.parse(want); err != nil {
		t.Fatalf("parse(%s): %v", want, err)
	}
	ref := reflect.New(reflect.TypeOf(r).Elem()).Interface()
	if err := json.Unmarshal(want, ref); err != nil {
		t.Fatalf("reference: Unmarshal(%s): %v", want, err)
	}
	if !reflect.DeepEqual(back, ref) {
		t.Fatalf("parse(%s)\n got %+v\nwant %+v", want, back, ref)
	}
	// The sign of a zero, which == does not see, and the value itself.
	if !strings.Contains(string(want), `\ufffd`) && !bytes.Equal(back.appendJSON(nil), want) {
		t.Fatalf("parse(%s) encodes back to %s", want, back.appendJSON(nil))
	}
}

// TestRowCodecMatchesEncodingJSON: every shape at the edges the format has.
func TestRowCodecMatchesEncodingJSON(t *testing.T) {
	summed := 0.0 // a million of the largest payment: digits that are nobody's literal
	for i := 0; i < 1e6; i++ {
		summed += 1 + 499899.0/100
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -10, 0.07, 1.0 / 3, 4999.99, summed, -summed,
		1e-7, 9.999999e-7, 1e-6, 1e20, 123456789012345680000, 1e21, -1e21, 1.5e-9, 1e-10, 1e100,
		math.MaxFloat64, math.SmallestNonzeroFloat64, float64(math.MaxInt64),
	}
	ints := []int64{0, 1, -1, 9, 10, 3000, math.MaxInt32, math.MaxInt64, math.MinInt64}
	strs := []string{
		"", "W", "item-000123", strings.Repeat("x", 250), "BARBARBAR",
		`"`, `\`, `\\"`, "<", ">", "&", "<script>&amp;</script>", "'", "/",
		"\u2028", "\u2029", "a\u2028b\u2029c", "\ufffd", "h\u00e9llo", "\u65e5\u672c\u8a9e", "\U0001F600",
		"\x00", "\x01\x02\x1e\x1f", "\b\f\n\r\t", "\x7f", " ~",
		"\xff", "a\xc0b", "\xed\xa0\x80", "\xe2\x80", "x\xf0\x9f\x98", `\ufffd`, `\u003c`,
	}
	for _, r := range shapes() {
		for _, f := range floats {
			for _, n := range ints {
				fill(r, func() string { return "s" }, func() float64 { return f }, func() int64 { return n })
				checkAgainstJSON(t, r)
			}
		}
		for _, s := range strs {
			fill(r, func() string { return s }, func() float64 { return 1.5 }, func() int64 { return 7 })
			checkAgainstJSON(t, r)
		}
	}
}

// TestParseRejectsOtherSpellings: parse reads the encoder's text and nothing
// else, so what it accepts it can write back. Each of these is JSON that
// encoding/json would read into a stockRow or an itemRow.
func TestParseRejectsOtherSpellings(t *testing.T) {
	for _, raw := range []string{
		``, `{}`, `null`,
		`{"qty":1,"ytd":2,"order_cnt":3} `, ` {"qty":1,"ytd":2,"order_cnt":3}`, `{"qty": 1,"ytd":2,"order_cnt":3}`,
		`{"ytd":2,"qty":1,"order_cnt":3}`, `{"qty":1,"ytd":2}`, `{"qty":1,"ytd":2,"order_cnt":3,"x":4}`,
		`{"qty":01,"ytd":2,"order_cnt":3}`, `{"qty":-0,"ytd":2,"order_cnt":3}`, `{"qty":+1,"ytd":2,"order_cnt":3}`,
		`{"qty":1.0,"ytd":2,"order_cnt":3}`, `{"qty":1e2,"ytd":2,"order_cnt":3}`,
		`{"qty":9223372036854775808,"ytd":2,"order_cnt":3}`, `{"qty":,"ytd":2,"order_cnt":3}`,
		`{"qty":1,"ytd":2,"order_cnt":3`, `{"qty":1,"ytd":2,"order_cnt":3}}`,
	} {
		if err := new(stockRow).parse([]byte(raw)); err == nil {
			t.Errorf("stockRow.parse(%q) succeeded", raw)
		}
	}
	for _, raw := range []string{
		`{"name":"a","price":1.50}`, `{"name":"a","price":1.0}`, `{"name":"a","price":1E2}`, `{"name":"a","price":1e2}`,
		`{"name":"a","price":.5}`, `{"name":"a","price":1e-07}`, `{"name":"a","price":0.0000001}`,
		`{"name":"a","price":1e999}`, `{"name":"a","price":NaN}`, `{"name":"a","price":0.10000000000000001}`,
		`{"name":"a","price":1000000000000000000000}`, `{"name":"a","price":"1"}`,
		`{"name":a,"price":1}`, `{"name":"a,"price":1}`, `{"name":"a`, `{"name":"\`, `{"name":"\u00`,
		`{"name":"<","price":1}`, `{"name":"\/","price":1}`, `{"name":"\u0041","price":1}`, `{"name":"\u003C","price":1}`,
		`{"name":"\u000a","price":1}`, `{"name":"\u0022","price":1}`, `{"name":"\ud83d\ude00","price":1}`,
		"{\"name\":\"\n\",\"price\":1}", "{\"name\":\"\xff\",\"price\":1}", "{\"name\":\"\u2028\",\"price\":1}",
	} {
		if err := new(itemRow).parse([]byte(raw)); err == nil {
			t.Errorf("itemRow.parse(%q) succeeded", raw)
		}
	}
}

// FuzzRowCodec reads data twice. As a row's text: parse never panics, and
// text it accepts is text encoding/json reads to the same value and that
// appendJSON writes back byte for byte (\ufffd, written for a byte that was
// not UTF-8, comes back as the character it names). As the source of a row's
// field values: the codec agrees with encoding/json on them.
func FuzzRowCodec(f *testing.F) {
	for i, r := range shapes() {
		fill(r, func() string { return "a<\"\\\n\x01\u2028\xff\u00e9" }, func() float64 { return -1e-7 }, func() int64 { return math.MinInt64 })
		f.Add(uint8(i), r.appendJSON(nil))
		f.Add(uint8(i), []byte(`{"name":"W","tax":0.07,"ytd":1e+21}`))
	}
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		r := shapes()[int(shape)%len(shapes())]
		if err := r.parse(data); err == nil {
			ref := reflect.New(reflect.TypeOf(r).Elem()).Interface()
			if err := json.Unmarshal(data, ref); err != nil || !reflect.DeepEqual(r, ref) {
				t.Fatalf("parse(%q) = %+v; encoding/json reads %+v, %v", data, r, ref, err)
			}
			out := r.appendJSON(nil)
			if want := bytes.ReplaceAll(data, []byte(`\ufffd`), []byte("\ufffd")); !bytes.Equal(out, want) &&
				!bytes.Contains(data, []byte(`\\ufffd`)) { // an escaped backslash before the letters: no escape of U+FFFD
				t.Fatalf("parse(%q) encodes back to %q", data, out)
			}
			again := shapes()[int(shape)%len(shapes())]
			if err := again.parse(out); err != nil || !reflect.DeepEqual(again, r) || !bytes.Equal(again.appendJSON(nil), out) {
				t.Fatalf("%q parsed, encoded to %q and parsed again: %+v, %v; was %+v", data, out, again, err, r)
			}
		}

		next := func(n int) []byte {
			n = min(n, len(data))
			b := data[:n]
			data = data[n:]
			return b
		}
		word := func() uint64 {
			var w [8]byte
			copy(w[:], next(8))
			return binary.LittleEndian.Uint64(w[:])
		}
		fill(r,
			func() string { return string(next(int(word() % 24))) },
			func() float64 {
				if f := math.Float64frombits(word()); !math.IsNaN(f) && !math.IsInf(f, 0) {
					return f
				}
				return 0
			},
			func() int64 { return int64(word()) })
		checkAgainstJSON(t, r)
	})
}

// TestParseReusesTheRowsBuffers: a row that has been parsed into holds the
// buffers its strings need, so reading the next row into it — the Client's
// one row of the shape — allocates nothing.
func TestParseReusesTheRowsBuffers(t *testing.T) {
	c := customerRow{First: text("first-00001"), Last: text("BAR\nBAR"), Balance: -10, Data: bytes.Repeat([]byte("x"), 250)}
	raw := c.appendJSON(nil)
	var into customerRow
	if err := into.parse(raw); err != nil || !reflect.DeepEqual(into, c) {
		t.Fatalf("parse = %+v, %v", into, err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := into.parse(raw); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("parsing into a row parsed into before: %v allocations", n)
	}
}
