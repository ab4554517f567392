package events

import (
	"encoding/json"
	"strconv"
	"time"

	"repro/internal/core/types"
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
	if !Plain(string(e.Kind)) || !Plain(e.JobID) || !Plain(e.Status) || !Plain(e.Detail) ||
		!Plain(e.TraceID) || !Plain(e.SpanID) || !Marshalable(e.Time) || !Marshalable(e.Deadline) {
		raw, err := json.Marshal(e)
		if err != nil {
			return dst, err
		}
		return append(dst, raw...), nil
	}
	b := AppendString(append(dst, `{"kind":`...), string(e.Kind))
	if e.JobID != "" {
		b = AppendString(append(b, `,"job_id":`...), e.JobID)
	}
	b = strconv.AppendInt(append(b, `,"learner":`...), int64(e.Learner), 10)
	b = AppendString(append(b, `,"status":`...), e.Status)
	if e.Detail != "" {
		b = AppendString(append(b, `,"detail":`...), e.Detail)
	}
	b = AppendTime(append(b, `,"time":`...), e.Time)
	if e.Rev != 0 {
		b = strconv.AppendUint(append(b, `,"rev":`...), e.Rev, 10)
	}
	b = AppendTime(append(b, `,"deadline":`...), e.Deadline)
	if e.Images != 0 {
		b = strconv.AppendInt(append(b, `,"images":`...), e.Images, 10)
	}
	if e.TraceID != "" {
		b = AppendString(append(b, `,"trace_id":`...), e.TraceID)
	}
	if e.SpanID != "" {
		b = AppendString(append(b, `,"span_id":`...), e.SpanID)
	}
	return append(b, '}'), nil
}

// Plain reports whether json.Marshal writes s between its quotes as it
// is: printable ASCII other than the quote, the backslash and the three
// HTML characters it escapes (<, >, &). It and the three below are the
// parts of an encoder that matches json.Marshal byte for byte without
// reflection: Envelope.Append's, and the Guardian journal's.
func Plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// AppendString appends s as json.Marshal writes it; Plain(s) must hold.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
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
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"')
}

// Decode parses raw as an envelope, tolerating legacy payloads: a raw
// types.StatusUpdate JSON document decodes as KindLearnerStatus (its
// field names are a subset of the envelope's), and a bare learner status
// (the pre-envelope NFS status file: exactly one of the five
// types.LearnerStatus values) becomes a learner-status envelope with just
// Status set. ok is false for empty input and for anything else — a torn
// envelope is not a status.
func Decode(raw []byte) (Envelope, bool) {
	if len(raw) == 0 {
		return Envelope{}, false
	}
	return DecodeString(string(raw))
}

// DecodeString is Decode of a store value. An envelope in the form Encode
// writes is parsed in place: its strings are substrings of s.
func DecodeString(s string) (Envelope, bool) {
	if s == "" {
		return Envelope{}, false
	}
	e, ok := decodeCanonical(s)
	if !ok {
		var u Envelope
		if err := json.Unmarshal([]byte(s), &u); err != nil {
			return bareStatus(s)
		}
		e = u
	}
	if e.Kind == "" {
		// Legacy StatusUpdate document: same field names, no kind.
		e.Kind = KindLearnerStatus
	}
	if e.Status == "" {
		return Envelope{}, false
	}
	return e, true
}

// bareStatus decodes the pre-envelope NFS status file.
func bareStatus(s string) (Envelope, bool) {
	switch types.LearnerStatus(s) {
	case types.LearnerStarting, types.LearnerDownloading, types.LearnerTraining,
		types.LearnerCompleted, types.LearnerFailed:
		return Envelope{Kind: KindLearnerStatus, Status: s}, true
	}
	return Envelope{}, false
}

// decodeCanonical parses s if it is an envelope in Encode's field order
// with no whitespace, no escape and no non-ASCII byte in its strings, and
// integers in their shortest form: exactly what json.Unmarshal would make
// of it. ok is false for anything else, which json.Unmarshal then reads.
func decodeCanonical(s string) (e Envelope, ok bool) {
	c := cursor{s: s, ok: true}
	c.expect(`{"kind":`)
	e.Kind = Kind(c.str())
	if c.field(`,"job_id":`) {
		e.JobID = c.str()
	}
	c.expect(`,"learner":`)
	e.Learner = int(c.signed(strconv.IntSize))
	c.expect(`,"status":`)
	e.Status = c.str()
	if c.field(`,"detail":`) {
		e.Detail = c.str()
	}
	c.expect(`,"time":`)
	e.Time = c.timestamp()
	if c.field(`,"rev":`) {
		e.Rev = c.unsigned()
	}
	c.expect(`,"deadline":`)
	e.Deadline = c.timestamp()
	if c.field(`,"images":`) {
		e.Images = c.signed(64)
	}
	if c.field(`,"trace_id":`) {
		e.TraceID = c.str()
	}
	if c.field(`,"span_id":`) {
		e.SpanID = c.str()
	}
	c.expect(`}`)
	return e, c.ok && c.i == len(s)
}

// cursor reads decodeCanonical's input. The first mismatch clears ok, and
// every read after it returns a zero value.
type cursor struct {
	s  string
	i  int
	ok bool
}

// field consumes lit if the input continues with it.
func (c *cursor) field(lit string) bool {
	if c.ok && len(c.s)-c.i >= len(lit) && c.s[c.i:c.i+len(lit)] == lit {
		c.i += len(lit)
		return true
	}
	return false
}

func (c *cursor) expect(lit string) {
	if !c.field(lit) {
		c.ok = false
	}
}

// str reads a string of printable ASCII with no escape.
func (c *cursor) str() string {
	if !c.ok || c.i >= len(c.s) || c.s[c.i] != '"' {
		c.ok = false
		return ""
	}
	for j := c.i + 1; j < len(c.s); j++ {
		switch b := c.s[j]; {
		case b == '"':
			v := c.s[c.i+1 : j]
			c.i = j + 1
			return v
		case b < 0x20, b >= 0x80, b == '\\':
			c.ok = false
			return ""
		}
	}
	c.ok = false
	return ""
}

// digits returns the integer literal at the cursor in its shortest form:
// an optional minus (if signed), then 0 or a digit string without a
// leading zero.
func (c *cursor) digits(signed bool) string {
	j := c.i
	if signed && j < len(c.s) && c.s[j] == '-' {
		j++
	}
	k := j
	for k < len(c.s) && '0' <= c.s[k] && c.s[k] <= '9' {
		k++
	}
	if !c.ok || k == j || (c.s[j] == '0' && k-j > 1) {
		c.ok = false
		return ""
	}
	v := c.s[c.i:k]
	c.i = k
	return v
}

func (c *cursor) signed(bits int) int64 {
	d := c.digits(true)
	if !c.ok {
		return 0
	}
	n, err := strconv.ParseInt(d, 10, bits)
	if err != nil {
		c.ok = false
	}
	return n
}

func (c *cursor) unsigned() uint64 {
	d := c.digits(false)
	if !c.ok {
		return 0
	}
	n, err := strconv.ParseUint(d, 10, 64)
	if err != nil {
		c.ok = false
	}
	return n
}

// timestamp reads a time through time.Time.UnmarshalJSON, as json.Unmarshal
// does.
func (c *cursor) timestamp() time.Time {
	start := c.i
	c.str()
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
