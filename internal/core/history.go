package core

import (
	"encoding/json"
	"strings"

	"repro/internal/canonjson"
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
		var buf [256]byte
		enc, err := appendEvent(buf[:0], ev)
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

// appendEvent appends ev as json.Marshal writes it, without reflection
// unless a string or the time needs json.Marshal's own hand.
func appendEvent(b []byte, ev types.Event) ([]byte, error) {
	if !canonjson.Plain(ev.JobID) || !canonjson.Plain(string(ev.State)) || !canonjson.Plain(ev.Note) || !canonjson.Marshalable(ev.Time) {
		return canonjson.Marshal(b, ev)
	}
	b = canonjson.AppendString(append(b, historyFields[0]...), ev.JobID)
	b = canonjson.AppendString(append(b, historyFields[1]...), string(ev.State))
	b = canonjson.AppendTime(append(b, historyFields[2]...), ev.Time)
	b = canonjson.AppendString(append(b, historyFields[3]...), ev.Note)
	return append(b, '}'), nil
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
			n := canonjson.StringLen(rest)
			if key == `,"Time":` {
				n = canonjson.TimeLen(rest)
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
