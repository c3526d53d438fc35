package traceio

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// The request-line codec. Save writes every request line in one byte
// layout, and a trace is read back line by line far more often than it is
// written, so both directions handle that layout by hand and hand every
// other input to encoding/json, whose result (value, bytes or error text)
// stays the reference: FuzzDecodeRecord and FuzzEncodeRecord check the
// hand-written path against it.

// appendRecord appends rec's line, without the newline, to b: exactly the
// bytes json.Marshal(rec) produces. Strings made only of printable ASCII
// other than '"', '\\', '<', '>' and '&' (the bytes json.Marshal escapes)
// are copied raw; a record with any other string, or with a NaN or
// infinite arrival, goes through json.Marshal, which keeps its bytes or
// its error.
func appendRecord(b []byte, rec record) ([]byte, error) {
	if !plainASCII(rec.Model) || !plainASCII(rec.Prefix) || math.IsNaN(rec.At) || math.IsInf(rec.At, 0) {
		j, err := json.Marshal(rec)
		return append(b, j...), err
	}
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, rec.ID, 10)
	b = append(b, `,"model":"`...)
	b = append(b, rec.Model...)
	b = append(b, `","at":`...)
	b = appendFloat(b, rec.At)
	b = append(b, `,"in":`...)
	b = strconv.AppendInt(b, int64(rec.In), 10)
	b = append(b, `,"out":`...)
	b = strconv.AppendInt(b, int64(rec.Out), 10)
	if rec.Prefix != "" {
		b = append(b, `,"prefix":"`...)
		b = append(b, rec.Prefix...)
		b = append(b, '"')
	}
	return append(b, '}'), nil
}

// plainASCII reports whether json.Marshal writes s between its quotes
// unchanged.
func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendFloat formats a finite float64 by encoding/json's rule: the
// shortest round-tripping digits, in 'f' form for 1e-6 <= |f| < 1e21 (and
// for zero), otherwise in 'e' form with a one-digit negative exponent
// unpadded (e-09 becomes e-9).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// decodeRecord decodes one request line: by parseRecord when the line has
// Save's layout, otherwise by json.Unmarshal, whose value or error it
// returns unchanged.
func decodeRecord(line []byte, names map[string]string) (record, error) {
	if rec, ok := parseRecord(line, names); ok {
		return rec, nil
	}
	var rec record
	err := json.Unmarshal(line, &rec)
	return rec, err
}

// parseRecord decodes line if it is exactly
//
//	{"id":I,"model":S,"at":F,"in":I,"out":I}
//
// with an optional ,"prefix":S before the closing brace, and ok is false
// for any other line. I is a JSON integer in range of its Go type, F a
// JSON number that strconv.ParseFloat (encoding/json's own call) accepts,
// and S a valid UTF-8 string without escapes or control bytes; every
// accepted line then decodes to what json.Unmarshal gives. A model name
// found in names is returned as that map's string, so a request for a
// model the header declares allocates nothing.
func parseRecord(line []byte, names map[string]string) (rec record, ok bool) {
	p := lineParser{b: line}
	var model, prefix []byte
	var in, out int64
	ok = p.lit(`{"id":`) && p.integer(&rec.ID, 64) &&
		p.lit(`,"model":"`) && p.str(&model) &&
		p.lit(`,"at":`) && p.float(&rec.At) &&
		p.lit(`,"in":`) && p.integer(&in, strconv.IntSize) &&
		p.lit(`,"out":`) && p.integer(&out, strconv.IntSize)
	if !ok {
		return record{}, false
	}
	rec.In, rec.Out = int(in), int(out)
	if p.lit(`,"prefix":"`) && !p.str(&prefix) {
		return record{}, false
	}
	if !p.lit("}") || p.i != len(p.b) {
		return record{}, false
	}
	rec.Prefix = string(prefix)
	if name, found := names[string(model)]; found {
		rec.Model = name
	} else {
		rec.Model = string(model)
	}
	return rec, true
}

// lineParser scans a request line left to right; each method consumes one
// token and reports false, leaving the line to json.Unmarshal, on anything
// outside the fast path's grammar.
type lineParser struct {
	b []byte
	i int
}

// lit consumes s if the line continues with it.
func (p *lineParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// digits consumes a run of decimal digits and returns its length.
func (p *lineParser) digits() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// intPart consumes the JSON integer grammar -?(0|[1-9][0-9]*).
func (p *lineParser) intPart() bool {
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	start := p.i
	n := p.digits()
	return n == 1 || n > 1 && p.b[start] != '0'
}

// integer consumes a JSON integer that fits a signed integer of the given
// bit size and stores it in v.
func (p *lineParser) integer(v *int64, bits int) bool {
	start := p.i
	if !p.intPart() {
		return false
	}
	s := p.b[start:p.i]
	neg := s[0] == '-'
	if neg {
		s = s[1:]
	}
	var u uint64
	for _, c := range s {
		d := uint64(c - '0')
		if u > (math.MaxUint64-d)/10 {
			return false
		}
		u = u*10 + d
	}
	limit := uint64(1) << (bits - 1) // |MinInt|; MaxInt is one less
	if neg {
		if u > limit {
			return false
		}
		*v = -int64(u)
		return true
	}
	if u >= limit {
		return false
	}
	*v = int64(u)
	return true
}

// float consumes a JSON number and stores strconv.ParseFloat's value of
// it; a number ParseFloat rejects (out of float64 range) is left to
// json.Unmarshal, which reports it.
func (p *lineParser) float(v *float64) bool {
	start := p.i
	if !p.intPart() {
		return false
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if p.digits() == 0 {
			return false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if p.digits() == 0 {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	if err != nil {
		return false
	}
	*v = f
	return true
}

// str consumes the rest of a string whose opening quote lit already took,
// through its closing quote, and sets s to its bytes. It accepts only
// valid UTF-8 without escapes or control bytes, which json.Unmarshal
// returns unchanged.
func (p *lineParser) str(s *[]byte) bool {
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			*s = p.b[start:p.i]
			p.i++
			return utf8.Valid(*s)
		case c < 0x20 || c == '\\':
			return false
		}
	}
	return false
}
