// Package canonjson writes and reads canonical JSON — the exact bytes
// json.Marshal writes — without reflection, for the documents the job path
// stores. An encoder writes a document's plain form and hands json.Marshal
// (Marshal) any value it cannot write plainly; a decoder reads only its
// encoder's layout through a Cursor and declines anything else for
// json.Unmarshal to read. Either way the result is encoding/json's.
package canonjson

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Marshal appends json.Marshal's encoding of v to b: an encoder's branch
// for a value it cannot write plainly.
func Marshal(b []byte, v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	return append(b, raw...), err
}

// plainLen returns the length of the longest prefix of s that json.Marshal
// writes as it is and json.Unmarshal reads back as it is: valid UTF-8 with
// no control byte, no ", \, <, > or &, and no U+2028 or U+2029.
func plainLen(s string) int {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c < 0x20, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return i
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
				return i
			}
			i += size
		}
	}
	return len(s)
}

// Plain reports whether json.Marshal writes s between its quotes as it is.
func Plain(s string) bool { return plainLen(s) == len(s) }

// AppendString appends s as json.Marshal writes it; Plain(s) must hold.
func AppendString(b []byte, s string) []byte {
	return append(append(append(b, '"'), s...), '"')
}

// AppendOmitEmpty appends lit and s as json.Marshal writes an omitempty
// string field, nothing if s is empty; Plain(s) must hold.
func AppendOmitEmpty(b []byte, lit, s string) []byte {
	if s == "" {
		return b
	}
	return AppendString(append(b, lit...), s)
}

// AppendObject appends m as json.Marshal writes a map with plain keys: its
// members in the byte order of the keys' text (so 10 comes before 2), each
// value written by value.
func AppendObject[K int | string, V any](b []byte, m map[K]V, value func([]byte, V) []byte) []byte {
	keys := make([]K, 0, 16)
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y K) int {
		var p, q [20]byte
		return bytes.Compare(appendKey(p[:0], x), appendKey(q[:0], y))
	})
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = value(append(appendKey(append(b, '"'), k), `":`...), m[k])
	}
	return append(b, '}')
}

// appendKey appends a map key's text: a string as it is, an int in
// decimal.
func appendKey[K int | string](b []byte, k K) []byte {
	if s, ok := any(k).(string); ok {
		return append(b, s...)
	}
	return strconv.AppendInt(b, int64(any(k).(int)), 10)
}

// Marshalable reports whether time.Time.MarshalJSON accepts t: a
// four-digit year and a zone offset under 24 hours.
func Marshalable(t time.Time) bool {
	_, off := t.Zone()
	y := t.Year()
	return 0 <= y && y <= 9999 && -24*3600 < off && off < 24*3600
}

// AppendTime appends t as time.Time.MarshalJSON writes it; Marshalable(t)
// must hold.
func AppendTime(b []byte, t time.Time) []byte {
	return append(t.AppendFormat(append(b, '"'), time.RFC3339Nano), '"')
}

// AppendFloat appends a finite f as json.Marshal writes it: the shortest
// decimal that round-trips, in exponent form (with no leading zero in the
// exponent) only below 1e-6 or from 1e21 up.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 to e-9
		b = b[:n-1]
	}
	return b
}

// StringLen returns the length of the JSON string s starts with if
// json.Marshal writes its decoded value as exactly those bytes, or -1.
// json.Marshal escapes ", \, control bytes, <, >, &, U+2028 and U+2029,
// each one way, and writes everything else raw; it writes an invalid
// UTF-8 byte as \ufffd, which decodes to a rune it writes raw, so
// \ufffd is never canonical.
func StringLen(s string) int {
	if s == "" || s[0] != '"' {
		return -1
	}
	for i := 1; ; {
		i += plainLen(s[i:])
		if i == len(s) {
			return -1
		}
		switch s[i] {
		case '"':
			return i + 1
		case '\\':
			n := escapeLen(s[i:])
			if n < 0 {
				return -1
			}
			i += n
		default:
			return -1
		}
	}
}

// escapeLen returns the length of the escape s starts with if it is the
// one json.Marshal writes for the character it stands for, or -1.
func escapeLen(s string) int {
	if len(s) < 2 {
		return -1
	}
	switch s[1] {
	case '"', '\\', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		if len(s) < 6 {
			return -1
		}
		switch u := s[2:6]; u {
		case "003c", "003e", "0026", "2028", "2029":
			return 6
		case "0008", "000c", "000a", "000d", "0009": // written as \b, \f, \n, \r, \t
			return -1
		default:
			// Other control bytes: \u00 and two lowercase hex digits.
			if u[:2] == "00" && (u[2] == '0' || u[2] == '1') && strings.IndexByte("0123456789abcdef", u[3]) >= 0 {
				return 6
			}
		}
	}
	return -1
}

// TimeLen returns the length of the JSON string s starts with if it is a
// time that decodes (Cursor.Time, as json.Unmarshal reads it) to one
// json.Marshal writes as exactly those bytes, or -1.
func TimeLen(s string) int {
	c := NewCursor(s)
	t := c.Time("")
	var out [64]byte
	if !c.ok || !Marshalable(t) || string(AppendTime(out[:0], t)) != s[:c.i] {
		return -1
	}
	return c.i
}

// Cursor reads a document in its encoder's layout. Each read takes the
// literal that precedes the value — a key with its punctuation, such as
// `,"name":` — and then the value. The first mismatch clears the cursor,
// every read after it returns a zero value, and Done reports false: the
// document is then json.Unmarshal's to read.
type Cursor struct {
	s  string
	i  int
	ok bool
}

// NewCursor returns a cursor at the start of s.
func NewCursor(s string) Cursor { return Cursor{s: s, ok: true} }

// Done reports whether every read matched and the input is used up.
func (c *Cursor) Done() bool { return c.ok && c.i == len(c.s) }

// Field consumes lit if the input continues with it.
func (c *Cursor) Field(lit string) bool {
	if c.ok && strings.HasPrefix(c.s[c.i:], lit) {
		c.i += len(lit)
		return true
	}
	return false
}

// Expect consumes lit, or clears the cursor.
func (c *Cursor) Expect(lit string) {
	if !c.Field(lit) {
		c.ok = false
	}
}

// Str reads lit, then a string without an escape (plainLen): what
// json.Unmarshal reads it as is a substring of the input.
func (c *Cursor) Str(lit string) string {
	c.Expect(lit)
	c.Expect(`"`)
	if !c.ok {
		return ""
	}
	v := c.s[c.i : c.i+plainLen(c.s[c.i:])]
	c.i += len(v)
	if c.Expect(`"`); !c.ok {
		return ""
	}
	return v
}

// OmitEmpty reads lit and a string if the input continues with lit: an
// omitempty string field. It is "" if lit is absent.
func (c *Cursor) OmitEmpty(lit string) string {
	if !c.Field(lit) {
		return ""
	}
	return c.Str("")
}

// Int reads lit, then an integer that fits bits bits, in its shortest
// form: an optional minus and a digit string without a leading zero, never
// -0.
func (c *Cursor) Int(lit string, bits int) int64 {
	c.Expect(lit)
	j := c.i
	if c.ok && j < len(c.s) && c.s[j] == '-' {
		j++
	}
	k := j
	for c.ok && k < len(c.s) && '0' <= c.s[k] && c.s[k] <= '9' {
		k++
	}
	if !c.ok || k == j || c.s[j] == '0' && (k-j > 1 || j > c.i) {
		c.ok = false
		return 0
	}
	n, err := strconv.ParseInt(c.s[c.i:k], 10, bits)
	c.i, c.ok = k, err == nil
	return n
}

// Uint reads lit, then an integer from 0 to math.MaxInt64 as a uint64; a
// larger one is left to json.Unmarshal.
func (c *Cursor) Uint(lit string) uint64 {
	n := c.Int(lit, 64)
	if n < 0 {
		c.ok = false
	}
	return uint64(n)
}

// Time reads lit, then a time through time.Time.UnmarshalJSON, as
// json.Unmarshal does.
func (c *Cursor) Time(lit string) time.Time {
	c.Expect(lit)
	start := c.i
	c.Str("")
	var buf [64]byte
	if !c.ok || c.i-start > len(buf) {
		c.ok = false
		return time.Time{}
	}
	var t time.Time
	if err := t.UnmarshalJSON(append(buf[:0], c.s[start:c.i]...)); err != nil {
		c.ok = false
	}
	return t
}
