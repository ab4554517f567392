package events

import (
	"encoding/json"
	"strconv"

	"repro/internal/canonjson"
)

// Encode serializes the envelope for a store value or NFS file: the
// bytes json.Marshal writes.
func (e Envelope) Encode() ([]byte, error) {
	n := len(e.Kind) + len(e.JobID) + len(e.Status) + len(e.Detail) + len(e.TraceID) + len(e.SpanID)
	return e.Append(make([]byte, 0, 256+n))
}

// Append appends the envelope's encoding to dst, byte for byte what
// json.Marshal writes, without reflection. An envelope json.Marshal would
// write differently from its plain form — a string with a byte it
// escapes, a time it refuses — is handed to json.Marshal itself.
func (e Envelope) Append(dst []byte) ([]byte, error) {
	if !canonjson.Plain(string(e.Kind)) || !canonjson.Plain(e.JobID) || !canonjson.Plain(e.Status) || !canonjson.Plain(e.Detail) ||
		!canonjson.Plain(e.TraceID) || !canonjson.Plain(e.SpanID) || !canonjson.Marshalable(e.Time) || !canonjson.Marshalable(e.Deadline) {
		return canonjson.Marshal(dst, e)
	}
	b := canonjson.AppendString(append(dst, `{"kind":`...), string(e.Kind))
	b = canonjson.AppendOmitEmpty(b, `,"job_id":`, e.JobID)
	b = strconv.AppendInt(append(b, `,"learner":`...), int64(e.Learner), 10)
	b = canonjson.AppendString(append(b, `,"status":`...), e.Status)
	b = canonjson.AppendOmitEmpty(b, `,"detail":`, e.Detail)
	b = canonjson.AppendTime(append(b, `,"time":`...), e.Time)
	if e.Rev != 0 {
		b = strconv.AppendUint(append(b, `,"rev":`...), e.Rev, 10)
	}
	b = canonjson.AppendTime(append(b, `,"deadline":`...), e.Deadline)
	if e.Images != 0 {
		b = strconv.AppendInt(append(b, `,"images":`...), e.Images, 10)
	}
	b = canonjson.AppendOmitEmpty(b, `,"trace_id":`, e.TraceID)
	b = canonjson.AppendOmitEmpty(b, `,"span_id":`, e.SpanID)
	return append(b, '}'), nil
}

// Decode parses raw as an envelope. ok is false for empty input, for
// bytes that are not JSON (a torn envelope is not a status), and for an
// envelope with no kind or no status.
func Decode(raw []byte) (Envelope, bool) {
	return DecodeString(string(raw))
}

// DecodeString is Decode of a store value. An envelope in the form Encode
// writes is parsed in place: its strings are substrings of s.
func DecodeString(s string) (Envelope, bool) {
	e, ok := decodeCanonical(s)
	if !ok {
		var u Envelope
		if err := json.Unmarshal([]byte(s), &u); err != nil {
			return Envelope{}, false
		}
		e = u
	}
	if e.Kind == "" || e.Status == "" {
		return Envelope{}, false
	}
	return e, true
}

// decodeCanonical parses s if it is an envelope in Encode's layout
// (canonjson.Cursor): exactly what json.Unmarshal would make of it. ok is
// false for anything else, which json.Unmarshal then reads.
func decodeCanonical(s string) (e Envelope, ok bool) {
	c := canonjson.NewCursor(s)
	e.Kind = Kind(c.Str(`{"kind":`))
	e.JobID = c.OmitEmpty(`,"job_id":`)
	e.Learner = int(c.Int(`,"learner":`, strconv.IntSize))
	e.Status = c.Str(`,"status":`)
	e.Detail = c.OmitEmpty(`,"detail":`)
	e.Time = c.Time(`,"time":`)
	if c.Field(`,"rev":`) {
		e.Rev = c.Uint("")
	}
	e.Deadline = c.Time(`,"deadline":`)
	if c.Field(`,"images":`) {
		e.Images = c.Int("", 64)
	}
	e.TraceID = c.OmitEmpty(`,"trace_id":`)
	e.SpanID = c.OmitEmpty(`,"span_id":`)
	c.Expect(`}`)
	return e, c.Done()
}
