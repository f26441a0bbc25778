package tpcc

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Row types. A row is stored as the text encoding/json produces for its
// struct — the field names of the tags (historyRow has none) in declaration
// order, ES6 number formatting, HTML-safe string escaping — because the
// database file is read by field name elsewhere (benchmark/e2e's verifier)
// and its bytes are pinned (TestIdenticalRunsIssueIdenticalTraffic). The
// codec below writes and reads exactly that text without reflection;
// rows_test.go holds it to encoding/json byte for byte.
type warehouseRow struct {
	Name text    `json:"name"`
	Tax  float64 `json:"tax"`
	YTD  float64 `json:"ytd"`
}

type districtRow struct {
	Name    text    `json:"name"`
	Tax     float64 `json:"tax"`
	YTD     float64 `json:"ytd"`
	NextOID int     `json:"next_o_id"`
}

type customerRow struct {
	First       text    `json:"first"`
	Last        text    `json:"last"`
	Balance     float64 `json:"balance"`
	YTDPayment  float64 `json:"ytd_payment"`
	PaymentCnt  int     `json:"payment_cnt"`
	DeliveryCnt int     `json:"delivery_cnt"`
	Data        text    `json:"data"`
}

type itemRow struct {
	Name  text    `json:"name"`
	Price float64 `json:"price"`
}

type stockRow struct {
	Qty      int `json:"qty"`
	YTD      int `json:"ytd"`
	OrderCnt int `json:"order_cnt"`
}

type orderRow struct {
	CID       int   `json:"c_id"`
	EntryD    int64 `json:"entry_d"`
	CarrierID int   `json:"carrier_id"`
	OLCnt     int   `json:"ol_cnt"`
}

type orderLineRow struct {
	ItemID int     `json:"i_id"`
	Qty    int     `json:"qty"`
	Amount float64 `json:"amount"`
}

type historyRow struct {
	WID, DID, CID int
	Amount        float64
	Date          int64
}

// text is a string field: its bytes, in a buffer that is the row's own and
// that the next parse into the row fills again. (To encoding/json, in the
// tests, it is a string through MarshalText.)
type text []byte

// row is what get and Client.put move between a struct and its text.
type row interface {
	appendJSON(dst []byte) []byte
	parse(raw []byte) error
}

func (r *warehouseRow) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"name":`...), r.Name)
	b = appendFloat(append(b, `,"tax":`...), r.Tax)
	b = appendFloat(append(b, `,"ytd":`...), r.YTD)
	return append(b, '}')
}

func (r *warehouseRow) parse(raw []byte) error {
	p := parser{rest: raw}
	p.str(`{"name":"`, &r.Name)
	r.Tax = p.float(`,"tax":`)
	r.YTD = p.float(`,"ytd":`)
	return p.end()
}

func (r *districtRow) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"name":`...), r.Name)
	b = appendFloat(append(b, `,"tax":`...), r.Tax)
	b = appendFloat(append(b, `,"ytd":`...), r.YTD)
	b = strconv.AppendInt(append(b, `,"next_o_id":`...), int64(r.NextOID), 10)
	return append(b, '}')
}

func (r *districtRow) parse(raw []byte) error {
	p := parser{rest: raw}
	p.str(`{"name":"`, &r.Name)
	r.Tax = p.float(`,"tax":`)
	r.YTD = p.float(`,"ytd":`)
	r.NextOID = p.int(`,"next_o_id":`)
	return p.end()
}

func (r *customerRow) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"first":`...), r.First)
	b = appendString(append(b, `,"last":`...), r.Last)
	b = appendFloat(append(b, `,"balance":`...), r.Balance)
	b = appendFloat(append(b, `,"ytd_payment":`...), r.YTDPayment)
	b = strconv.AppendInt(append(b, `,"payment_cnt":`...), int64(r.PaymentCnt), 10)
	b = strconv.AppendInt(append(b, `,"delivery_cnt":`...), int64(r.DeliveryCnt), 10)
	b = appendString(append(b, `,"data":`...), r.Data)
	return append(b, '}')
}

func (r *customerRow) parse(raw []byte) error {
	p := parser{rest: raw}
	p.str(`{"first":"`, &r.First)
	p.str(`,"last":"`, &r.Last)
	r.Balance = p.float(`,"balance":`)
	r.YTDPayment = p.float(`,"ytd_payment":`)
	r.PaymentCnt = p.int(`,"payment_cnt":`)
	r.DeliveryCnt = p.int(`,"delivery_cnt":`)
	p.str(`,"data":"`, &r.Data)
	return p.end()
}

func (r *itemRow) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"name":`...), r.Name)
	b = appendFloat(append(b, `,"price":`...), r.Price)
	return append(b, '}')
}

func (r *itemRow) parse(raw []byte) error {
	p := parser{rest: raw}
	p.str(`{"name":"`, &r.Name)
	r.Price = p.float(`,"price":`)
	return p.end()
}

func (r *stockRow) appendJSON(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"qty":`...), int64(r.Qty), 10)
	b = strconv.AppendInt(append(b, `,"ytd":`...), int64(r.YTD), 10)
	b = strconv.AppendInt(append(b, `,"order_cnt":`...), int64(r.OrderCnt), 10)
	return append(b, '}')
}

func (r *stockRow) parse(raw []byte) error {
	p := parser{rest: raw}
	r.Qty = p.int(`{"qty":`)
	r.YTD = p.int(`,"ytd":`)
	r.OrderCnt = p.int(`,"order_cnt":`)
	return p.end()
}

func (r *orderRow) appendJSON(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"c_id":`...), int64(r.CID), 10)
	b = strconv.AppendInt(append(b, `,"entry_d":`...), r.EntryD, 10)
	b = strconv.AppendInt(append(b, `,"carrier_id":`...), int64(r.CarrierID), 10)
	b = strconv.AppendInt(append(b, `,"ol_cnt":`...), int64(r.OLCnt), 10)
	return append(b, '}')
}

func (r *orderRow) parse(raw []byte) error {
	p := parser{rest: raw}
	r.CID = p.int(`{"c_id":`)
	r.EntryD = p.int64(`,"entry_d":`)
	r.CarrierID = p.int(`,"carrier_id":`)
	r.OLCnt = p.int(`,"ol_cnt":`)
	return p.end()
}

func (r *orderLineRow) appendJSON(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"i_id":`...), int64(r.ItemID), 10)
	b = strconv.AppendInt(append(b, `,"qty":`...), int64(r.Qty), 10)
	b = appendFloat(append(b, `,"amount":`...), r.Amount)
	return append(b, '}')
}

func (r *orderLineRow) parse(raw []byte) error {
	p := parser{rest: raw}
	r.ItemID = p.int(`{"i_id":`)
	r.Qty = p.int(`,"qty":`)
	r.Amount = p.float(`,"amount":`)
	return p.end()
}

func (r *historyRow) appendJSON(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"WID":`...), int64(r.WID), 10)
	b = strconv.AppendInt(append(b, `,"DID":`...), int64(r.DID), 10)
	b = strconv.AppendInt(append(b, `,"CID":`...), int64(r.CID), 10)
	b = appendFloat(append(b, `,"Amount":`...), r.Amount)
	b = strconv.AppendInt(append(b, `,"Date":`...), r.Date, 10)
	return append(b, '}')
}

func (r *historyRow) parse(raw []byte) error {
	p := parser{rest: raw}
	r.WID = p.int(`{"WID":`)
	r.DID = p.int(`,"DID":`)
	r.CID = p.int(`,"CID":`)
	r.Amount = p.float(`,"Amount":`)
	r.Date = p.int64(`,"Date":`)
	return p.end()
}

// appendFloat is encoding/json's float64 encoder: the shortest digits that
// round-trip, in 'f' form between 1e-6 and 1e21 and 'e' form outside, the
// exponent without its leading zero. A row never holds NaN or an infinity,
// which JSON cannot say.
func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic("tpcc: non-finite number in a row")
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// The bytes encoding/json writes as a backslash and a letter, and the letters.
const (
	shortEscaped = "\"\\\b\f\n\r\t"
	shortEscapes = `"\bfnrt`
)

// literal reports whether encoding/json writes the ASCII byte c into a string
// as it is: not a control byte, the quote, the backslash or one of <, >, &.
func literal(c byte) bool {
	return c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString is encoding/json's string encoder with HTML escaping on, as
// Marshal has it: \" \\ \b \f \n \r \t, \u00xx for other control bytes and
// <, >, &, \u2028 and \u2029 for the two separators, \ufffd for each byte
// that is not UTF-8.
func appendString(b []byte, s text) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := s[i], 1
		switch {
		case c < utf8.RuneSelf && literal(c):
			i++
			continue
		case c < utf8.RuneSelf:
			b = append(b, s[start:i]...)
			if j := strings.IndexByte(shortEscaped, c); j >= 0 {
				b = append(b, '\\', shortEscapes[j])
			} else {
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
		default:
			var r rune
			r, size = utf8.DecodeRune(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(append(b, s[start:i]...), `\ufffd`...)
			case r == '\u2028' || r == '\u2029':
				b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			default:
				i += size
				continue
			}
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

var errRow = errors.New("tpcc: row is not the JSON text of its shape")

// parser reads a row front to back. It accepts only what the encoder above
// writes — the fields in order, no white space, each number and string in
// its one canonical spelling — so a row that parses encodes back to the bytes
// it was read from (but for \ufffd, which stands for a byte that is gone);
// anything else is a corrupt row, not a dialect. The first mismatch sets bad,
// the calls after it do nothing, and end reports it.
type parser struct {
	rest []byte
	bad  bool
}

// lit consumes s, which must come next.
func (p *parser) lit(s string) {
	if p.bad || len(p.rest) < len(s) || string(p.rest[:len(s)]) != s {
		p.bad = true
		return
	}
	p.rest = p.rest[len(s):]
}

func (p *parser) end() error {
	if p.lit("}"); p.bad || len(p.rest) != 0 {
		return errRow
	}
	return nil
}

// number consumes name and the number token behind it: at most 32 bytes, more
// than any canonical number has and what converts to a string on the stack.
func (p *parser) number(name string) []byte {
	p.lit(name)
	if p.bad {
		return nil
	}
	n := 0
	for n < len(p.rest) && n < 32 {
		if c := p.rest[n]; (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' {
			break
		}
		n++
	}
	tok := p.rest[:n]
	p.rest = p.rest[n:]
	return tok
}

func (p *parser) int64(name string) int64 {
	tok := p.number(name)
	n, err := strconv.ParseInt(string(tok), 10, 64)
	var canon [32]byte
	if err != nil || !bytes.Equal(strconv.AppendInt(canon[:0], n, 10), tok) {
		p.bad = true
	}
	return n
}

// int is 64 bits wide wherever the simulator builds.
func (p *parser) int(name string) int { return int(p.int64(name)) }

func (p *parser) float(name string) float64 {
	tok := p.number(name)
	f, err := strconv.ParseFloat(string(tok), 64)
	var canon [32]byte
	if err != nil || !bytes.Equal(appendFloat(canon[:0], f), tok) {
		p.bad = true
		return 0
	}
	return f
}

// str consumes name, which ends in the opening quote, and a string, decoded
// into *dst's buffer.
func (p *parser) str(name string, dst *text) {
	p.lit(name)
	s, rest := (*dst)[:0], p.rest
	for !p.bad {
		if len(rest) == 0 {
			p.bad = true // no closing quote
			break
		}
		switch c := rest[0]; {
		case c == '"':
			*dst, p.rest = s, rest[1:]
			return
		case c == '\\':
			r, size := unescape(rest)
			p.bad = size == 0
			s, rest = utf8.AppendRune(s, r), rest[size:]
		case c < utf8.RuneSelf:
			n := 0
			for n < len(rest) && rest[n] < utf8.RuneSelf && literal(rest[n]) {
				n++
			}
			p.bad = n == 0
			s, rest = append(s, rest[:n]...), rest[n:]
		default:
			r, size := utf8.DecodeRune(rest)
			p.bad = r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' // the encoder escapes these
			s, rest = append(s, rest[:size]...), rest[size:]
		}
	}
}

// unescape decodes the escape sequence esc begins with and returns its
// length, or 0 when appendString never writes that sequence.
func unescape(esc []byte) (rune, int) {
	if len(esc) < 2 {
		return 0, 0
	}
	if j := strings.IndexByte(shortEscapes, esc[1]); j >= 0 {
		return rune(shortEscaped[j]), 2
	}
	if esc[1] != 'u' || len(esc) < 6 {
		return 0, 0
	}
	var r rune
	for _, c := range esc[2:6] {
		d := strings.IndexByte(hexDigits, c)
		if d < 0 {
			return 0, 0
		}
		r = r<<4 | rune(d)
	}
	// Only what the encoder spells \uxxxx, which it spells no other way.
	if r == '\u2028' || r == '\u2029' || r == utf8.RuneError ||
		r < utf8.RuneSelf && !literal(byte(r)) && !strings.ContainsRune(shortEscaped, r) {
		return r, 6
	}
	return 0, 0
}
