package events

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core/types"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	u := types.StatusUpdate{
		Learner: 2,
		Status:  types.LearnerTraining,
		Time:    time.Unix(100, 0).UTC(),
		Detail:  "images=1280",
	}
	env := LearnerStatus("job-7", u)
	raw, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := Decode(raw)
	if !ok {
		t.Fatalf("Decode(%s) not ok", raw)
	}
	if got.Kind != KindLearnerStatus || got.JobID != "job-7" {
		t.Fatalf("decoded = %+v", got)
	}
	if back := got.StatusUpdate(); back != u {
		t.Fatalf("round trip = %+v, want %+v", back, u)
	}
}

func TestDecodeLegacyStatusUpdateJSON(t *testing.T) {
	// The pre-envelope etcd wire format: a raw StatusUpdate document.
	raw := []byte(`{"learner":1,"status":"COMPLETED","time":"2020-01-01T00:00:00Z","detail":"x"}`)
	env, ok := Decode(raw)
	if !ok || env.Kind != KindLearnerStatus {
		t.Fatalf("legacy decode = %+v (ok=%v)", env, ok)
	}
	u := env.StatusUpdate()
	if u.Learner != 1 || u.Status != types.LearnerCompleted || u.Detail != "x" {
		t.Fatalf("legacy update = %+v", u)
	}
}

func TestDecodeBareStatusString(t *testing.T) {
	// The pre-envelope NFS status file: just the status bytes.
	for _, s := range []types.LearnerStatus{types.LearnerStarting, types.LearnerDownloading,
		types.LearnerTraining, types.LearnerCompleted, types.LearnerFailed} {
		env, ok := Decode([]byte(s))
		if !ok || env.Kind != KindLearnerStatus || env.Status != string(s) {
			t.Fatalf("bare decode of %s = %+v (ok=%v)", s, env, ok)
		}
	}
}

// TestDecodeRejectsTornAndForeignBytes pins that only the five legacy
// statuses decode as a bare status: a torn envelope (a status file read
// mid-rewrite, a truncated store value) or random bytes used to come back
// ok with the fragment as its Status, which the helper then mirrored into
// etcd as the learner's status.
func TestDecodeRejectsTornAndForeignBytes(t *testing.T) {
	raw, err := LearnerStatus("job-7", types.StatusUpdate{Learner: 1, Status: types.LearnerTraining,
		Time: time.Unix(100, 0).UTC()}).WithTrace("job-7", "00000000deadbeef").Encode()
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < len(raw); n++ {
		if env, ok := Decode(raw[:n]); ok {
			t.Fatalf("torn envelope %q decoded as %+v", raw[:n], env)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		b := make([]byte, 1+rng.Intn(40))
		rng.Read(b)
		if env, ok := Decode(b); ok {
			t.Fatalf("random bytes %q decoded as %+v", b, env)
		}
	}
	for _, s := range []string{"training", "TRAINING\n", `"TRAINING"`, "EVICT", "RUNNING"} {
		if env, ok := Decode([]byte(s)); ok {
			t.Fatalf("%q decoded as %+v", s, env)
		}
	}
}

func TestDecodeRejectsEmpty(t *testing.T) {
	if _, ok := Decode(nil); ok {
		t.Fatal("decoded empty input")
	}
	if _, ok := Decode([]byte(`{}`)); ok {
		t.Fatal("decoded an empty JSON object into a status")
	}
}

// TestDecodeWithoutTraceFields pins the legacy-tolerance contract for
// the tracing fields: envelopes written before tracing existed (no
// trace_id/span_id keys) must decode cleanly with empty trace context,
// and traced envelopes must round-trip both fields.
func TestDecodeWithoutTraceFields(t *testing.T) {
	legacy := []byte(`{"kind":"learner-status","job_id":"job-1","learner":0,"status":"TRAINING","time":"2020-01-01T00:00:00Z"}`)
	got, ok := Decode(legacy)
	if !ok || got.Status != "TRAINING" {
		t.Fatalf("legacy decode = %+v (ok=%v)", got, ok)
	}
	if got.TraceID != "" || got.SpanID != "" {
		t.Fatalf("legacy envelope grew trace context: %+v", got)
	}

	traced := got.WithTrace("job-1", "00000000deadbeef")
	raw, err := traced.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, ok := Decode(raw)
	if !ok || back.TraceID != "job-1" || back.SpanID != "00000000deadbeef" {
		t.Fatalf("traced round-trip = %+v (ok=%v)", back, ok)
	}

	// WithTrace with an empty context is a no-op.
	if e := got.WithTrace("", ""); e.TraceID != "" || e.SpanID != "" {
		t.Fatalf("empty WithTrace stamped fields: %+v", e)
	}
}

// referenceDecode is what Decode means: json.Unmarshal, plus the legacy
// rules (no kind is a learner status, no status is nothing, and bytes
// that are not JSON are a status only if they are one of the five).
func referenceDecode(raw []byte) (Envelope, bool) {
	if len(raw) == 0 {
		return Envelope{}, false
	}
	var e Envelope
	if err := json.Unmarshal(raw, &e); err != nil {
		switch types.LearnerStatus(raw) {
		case types.LearnerStarting, types.LearnerDownloading, types.LearnerTraining,
			types.LearnerCompleted, types.LearnerFailed:
			return Envelope{Kind: KindLearnerStatus, Status: string(raw)}, true
		}
		return Envelope{}, false
	}
	if e.Kind == "" {
		e.Kind = KindLearnerStatus
	}
	if e.Status == "" {
		return Envelope{}, false
	}
	return e, true
}

// fuzzEnvelope builds an envelope from fuzz arguments: the six string
// fields are raw split at '|', the times are seconds east of a zone.
func fuzzEnvelope(raw []byte, learner int, rev uint64, images, at, deadline int64, zone int) Envelope {
	f := bytes.SplitN(raw, []byte("|"), 6)
	for len(f) < 6 {
		f = append(f, nil)
	}
	e := Envelope{
		Kind: Kind(f[0]), JobID: string(f[1]), Learner: learner, Status: string(f[2]),
		Detail: string(f[3]), Rev: rev, Images: images, TraceID: string(f[4]), SpanID: string(f[5]),
		Time: time.Unix(at, int64(rev%1e9)).In(time.FixedZone("", zone)),
	}
	if deadline != 0 {
		e.Deadline = time.Unix(deadline, 0).UTC()
	}
	return e
}

func checkCodec(t *testing.T, raw []byte, e Envelope) {
	t.Helper()
	got, gotOK := Decode(raw)
	want, wantOK := referenceDecode(raw)
	if gotOK != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode(%q) = %+v, %v; json.Unmarshal says %+v, %v", raw, got, gotOK, want, wantOK)
	}
	enc, encErr := e.Encode()
	ref, refErr := json.Marshal(e)
	if (encErr == nil) != (refErr == nil) || !bytes.Equal(enc, ref) && encErr == nil {
		t.Fatalf("Encode(%+v) = %q, %v; json.Marshal wrote %q, %v", e, enc, encErr, ref, refErr)
	}
	if encErr == nil {
		got, gotOK := Decode(enc)
		want, wantOK := referenceDecode(enc)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode(%q) = %+v, %v; json.Unmarshal says %+v, %v", enc, got, gotOK, want, wantOK)
		}
	}
}

// FuzzEnvelopeCodec is a differential fuzz of the hand-written codec
// against encoding/json: for any bytes Decode must agree with
// referenceDecode, and for any envelope Encode must write json.Marshal's
// bytes (and decode back as json.Unmarshal reads them). The committed
// corpus (testdata/fuzz/FuzzEnvelopeCodec) holds the legacy forms.
func FuzzEnvelopeCodec(f *testing.F) {
	f.Add([]byte(`{"kind":"learner-status","job_id":"job-1","learner":0,"status":"TRAINING","time":"2018-05-17T00:00:01.5Z","deadline":"0001-01-01T00:00:00Z","trace_id":"job-1","span_id":"00000000deadbeef"}`),
		0, uint64(0), int64(0), int64(1526515201), int64(0), 0)
	f.Add([]byte("eviction-intent|job-2|EVICT|<preemption> & \"drain\"\u2028|job-2|\xff\xfe"),
		-3, uint64(17), int64(6400), int64(-62135596801), int64(1526515230), 86400)
	f.Fuzz(func(t *testing.T, raw []byte, learner int, rev uint64, images, at, deadline int64, zone int) {
		checkCodec(t, raw, fuzzEnvelope(raw, learner, rev, images, at, deadline, zone))
	})
}

// TestEnvelopeCodecMatchesJSON runs the fuzz property over seeded random
// envelopes whose strings mix plain bytes with everything encoding/json
// escapes or rewrites.
func TestEnvelopeCodecMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "Z", "0", "-", "=", " ", "<", ">", "&", `"`, `\`, "\n", "\x00", "\x7f",
		"\u2028", "\u2029", "é", "\xff", "|", "/"}
	str := func() string {
		var b []byte
		for n := rng.Intn(6); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))]...)
		}
		return string(b)
	}
	pick := func(vals ...int64) int64 { return vals[rng.Intn(len(vals))] }
	for i := 0; i < 1500; i++ {
		raw := []byte(str() + "|" + str() + "|" + str() + "|" + str() + "|" + str() + "|" + str())
		e := fuzzEnvelope(raw, int(pick(0, 1, -1, 1<<40)), uint64(pick(0, 1, 999999999, -1)),
			pick(0, 64, -5), pick(0, 1526515200, -62135596800, 253402300800, 1<<40),
			pick(0, 0, 1526515230), int(pick(0, 0, 3600, -5*3600-1800, 86400, -86399)))
		raw, _ = e.Encode()
		checkCodec(t, raw, e)
		if len(raw) > 0 {
			checkCodec(t, raw[:rng.Intn(len(raw))], e) // torn
		}
	}
}

// TestEnvelopeCodecAllocs pins what the codec costs on the control
// plane's path: encoding allocates only the result, and decoding a store
// value in Encode's form allocates nothing.
func TestEnvelopeCodecAllocs(t *testing.T) {
	e := LearnerStatus("job-00001", types.StatusUpdate{Learner: 1, Status: types.LearnerTraining,
		Time: time.Unix(1526515201, 5e8).UTC(), Detail: "images=1280"}).WithTrace("job-00001", "00000000deadbeef")
	raw, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	if n := testing.AllocsPerRun(100, func() { _, _ = e.Encode() }); n != 1 {
		t.Errorf("Encode: %.1f allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := DecodeString(s); !ok {
			t.Fatal("did not decode")
		}
	}); n != 0 {
		t.Errorf("DecodeString: %.1f allocations, want 0", n)
	}
}
