package core

import (
	"encoding/json"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/core/types"
)

// A job's history is stored as the JSON array json.Marshal writes for its
// []types.Event. Every transition appends one event, and the history of a
// job that is redeployed or waits through a long queue grows with it, so
// the append does not decode the array and encode it again: when the
// stored array is exactly what json.Marshal writes for what it decodes to
// — which is so for every history the platform wrote — the new event's
// encoding is spliced in before the closing bracket. The result is the
// same bytes either way.

// appendHistory returns the stored history raw with ev appended, as
// json.Marshal writes the decoded events followed by ev. An empty or
// non-canonical history (hand-written, from an older writer) is decoded
// and encoded again, as before.
func appendHistory(raw string, ev types.Event) (string, error) {
	if canonicalHistory(raw) {
		enc, err := json.Marshal(ev)
		if err != nil {
			return "", err
		}
		return raw[:len(raw)-1] + "," + string(enc) + "]", nil
	}
	enc, err := json.Marshal(append(decodeHistoryRaw(raw), ev))
	if err != nil {
		return "", err
	}
	return string(enc), nil
}

// historyFields are the keys of an encoded types.Event, in field order.
var historyFields = [...]string{`{"JobID":`, `,"State":`, `,"Time":`, `,"Note":`}

// canonicalHistory reports whether raw is a non-empty array of events that
// json.Marshal writes back byte for byte once decoded: the fields in
// declaration order, no whitespace, every string and time in the one form
// json.Marshal gives it.
func canonicalHistory(raw string) bool {
	if len(raw) < 2 || raw[0] != '[' || raw[len(raw)-1] != ']' {
		return false
	}
	rest := raw[1:]
	for {
		for _, key := range historyFields {
			if !strings.HasPrefix(rest, key) {
				return false
			}
			rest = rest[len(key):]
			n := canonicalString(rest)
			if key == `,"Time":` {
				n = canonicalTime(rest)
			}
			if n < 0 {
				return false
			}
			rest = rest[n:]
		}
		switch {
		case rest == "}]":
			return true
		case strings.HasPrefix(rest, "},"):
			rest = rest[2:]
		default:
			return false
		}
	}
}

// canonicalString returns the length of the JSON string s starts with if
// json.Marshal writes its decoded value as exactly those bytes, or -1.
// json.Marshal escapes ", \, control bytes, <, >, &, U+2028 and U+2029,
// each one way, and writes everything else raw; it writes an invalid
// UTF-8 byte as \ufffd, which decodes to a rune it writes raw, so
// \ufffd is never canonical.
func canonicalString(s string) int {
	if s == "" || s[0] != '"' {
		return -1
	}
	for i := 1; i < len(s); {
		c := s[i]
		switch {
		case c == '"':
			return i + 1
		case c == '\\':
			n := canonicalEscape(s[i:])
			if n < 0 {
				return -1
			}
			i += n
		case c < 0x20 || c == '<' || c == '>' || c == '&':
			return -1
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
				return -1
			}
			i += size
		}
	}
	return -1
}

// canonicalEscape returns the length of the escape s starts with if it is
// the one json.Marshal writes for the character it stands for, or -1.
func canonicalEscape(s string) int {
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

// canonicalTime returns the length of the JSON string s starts with if it
// is a time that decodes (time.Time.UnmarshalJSON, as json.Unmarshal
// reads it) to one json.Marshal writes as exactly those bytes, or -1.
func canonicalTime(s string) int {
	n := canonicalString(s)
	var buf [64]byte
	if n < 2 || n > len(buf) {
		return -1
	}
	var t time.Time
	if err := t.UnmarshalJSON(append(buf[:0], s[:n]...)); err != nil {
		return -1
	}
	_, off := t.Zone()
	if y := t.Year(); y < 0 || y > 9999 || off <= -24*3600 || off >= 24*3600 {
		return -1 // json.Marshal refuses it
	}
	var out [64]byte
	if string(t.AppendFormat(out[:0], time.RFC3339Nano)) != s[1:n-1] {
		return -1
	}
	return n
}
