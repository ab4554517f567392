package core

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core/types"
	"repro/internal/mongo"
)

// storedHistory reads the job's history exactly as the jobs collection
// holds it.
func storedHistory(t *testing.T, d *Deps, id string) string {
	t.Helper()
	doc, err := d.Jobs().FindOne(mongo.Filter{"_id": id})
	if err != nil {
		t.Fatal(err)
	}
	return asString(doc["history"])
}

func setHistory(t *testing.T, d *Deps, id, raw string) {
	t.Helper()
	if _, err := d.Jobs().Mutate(mongo.Filter{"_id": id}, func(doc mongo.Document) error {
		doc["history"] = raw
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// reencodedHistory is what a transition wrote before the splice: the
// stored history decoded, ev appended, and the slice encoded again.
func reencodedHistory(t *testing.T, raw string, ev types.Event) string {
	t.Helper()
	enc, err := json.Marshal(append(decodeHistoryRaw(raw), ev))
	if err != nil {
		t.Fatal(err)
	}
	return string(enc)
}

// transition moves the job and checks the history it stored against the
// decode-append-encode it replaces, and against json.Marshal of what it
// decodes to. It reports whether the stored history before it was spliced.
func transition(t *testing.T, d *Deps, id string, to types.JobState, reason string) (spliced bool) {
	t.Helper()
	before := storedHistory(t, d, id)
	spliced = canonicalHistory(before)
	rec, err := d.TransitionJob(id, to, reason)
	if err != nil {
		t.Fatalf("to %s: %v", to, err)
	}
	after := storedHistory(t, d, id)
	if want := reencodedHistory(t, before, types.Event{JobID: id, State: to, Time: rec.UpdatedAt, Note: reason}); after != want {
		t.Fatalf("to %s (%q): stored\n%s\nre-encoding writes\n%s", to, reason, after, want)
	}
	if enc, _ := json.Marshal(decodeHistoryRaw(after)); string(enc) != after {
		t.Fatalf("stored history is not json.Marshal of its events:\n%s\n%s", after, enc)
	}
	return spliced
}

// TestHistoryBytesMatchJSON pins that appending a transition by splicing
// writes the bytes decoding, appending and encoding again wrote, for
// reasons full of what encoding/json escapes, and that the histories the
// platform writes take the splice.
func TestHistoryBytesMatchJSON(t *testing.T) {
	d := newTestDeps(t)
	newQueuedJob(t, d, "job-<1>")
	for i, step := range []struct {
		to     types.JobState
		reason string
	}{
		{types.StateDeploying, `attempt 1 <of 3> & "quoted"`},
		{types.StateProcessing, "line\nbreak\ttab \x01 \\ back"},
		{types.StateDeploying, "sep \u2028 para \u2029 <script>"},
		{types.StateProcessing, "naïve café 日本 \U0001F600"},
		{types.StateStoring, ""},
		{types.StateCompleted, "results stored"},
	} {
		if !transition(t, d, "job-<1>", step.to, step.reason) {
			t.Fatalf("step %d: the platform's own history was not spliced: %s", i, storedHistory(t, d, "job-<1>"))
		}
	}
}

// TestHistoryFallsBackToReencoding covers the histories the splice must
// not touch: they are decoded and encoded again, as before, and the
// history written then is spliced from the next transition on.
func TestHistoryFallsBackToReencoding(t *testing.T) {
	for name, raw := range map[string]string{
		"empty":        "",
		"empty array":  "[]",
		"not json":     "[{torn",
		"legacy":       `[{"job_id":"job-1","state":"QUEUED","time":"2018-05-17T00:00:00Z"}]`,
		"hand-written": "[\n  {\"JobID\": \"job-1\", \"State\": \"QUEUED\", \"Time\": \"2018-05-17T00:00:00Z\", \"Note\": \"submitted\"}\n]",
		"field order":  `[{"State":"QUEUED","JobID":"job-1","Time":"2018-05-17T00:00:00Z","Note":"submitted"}]`,
		"long time":    `[{"JobID":"job-1","State":"QUEUED","Time":"2018-05-17T00:00:00.000Z","Note":"submitted"}]`,
		"zero offset":  `[{"JobID":"job-1","State":"QUEUED","Time":"2018-05-17T00:00:00+00:00","Note":"submitted"}]`,
		"escaped é":    `[{"JobID":"job-1","State":"QUEUED","Time":"2018-05-17T00:00:00Z","Note":"caf\u00e9"}]`,
		"upper hex":    `[{"JobID":"job-1","State":"QUEUED","Time":"2018-05-17T00:00:00Z","Note":"\u001F"}]`,
		"slash":        `[{"JobID":"job-1","State":"QUEUED","Time":"2018-05-17T00:00:00Z","Note":"a\/b"}]`,
		"replacement":  `[{"JobID":"job-1","State":"QUEUED","Time":"2018-05-17T00:00:00Z","Note":"bad \ufffd byte"}]`,
		"raw <":        `[{"JobID":"job-1","State":"QUEUED","Time":"2018-05-17T00:00:00Z","Note":"<"}]`,
		"extra field":  `[{"JobID":"job-1","State":"QUEUED","Time":"2018-05-17T00:00:00Z","Note":"","Extra":1}]`,
		"trailing":     `[{"JobID":"job-1","State":"QUEUED","Time":"2018-05-17T00:00:00Z","Note":""},]`,
	} {
		t.Run(name, func(t *testing.T) {
			d := newTestDeps(t)
			newQueuedJob(t, d, "job-1")
			setHistory(t, d, "job-1", raw)
			if canonicalHistory(raw) {
				t.Fatalf("%q taken as canonical", raw)
			}
			transition(t, d, "job-1", types.StateDeploying, "attempt 1")
			if !transition(t, d, "job-1", types.StateProcessing, "learners training") {
				t.Fatal("the re-encoded history was not spliced")
			}
		})
	}
}

// TestCanonicalHistoryIsAFixedPoint checks the property the splice rests
// on over seeded random histories and random edits of them: whatever
// canonicalHistory accepts, json.Marshal writes back byte for byte once
// decoded, and it accepts everything json.Marshal writes from valid UTF-8.
func TestCanonicalHistoryIsAFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alphabet := []string{"a", "Z", " ", "<", ">", "&", `"`, `\`, "\n", "\b", "\x00", "\x1f", "\x7f",
		"\u2028", "é", "\U0001F600", "\ufffd", "/", "u", "0", "{", "}", ",", ":", "[", "]"}
	str := func() string {
		var s string
		for n := rng.Intn(5); n > 0; n-- {
			s += alphabet[rng.Intn(len(alphabet))]
		}
		return s
	}
	for i := 0; i < 3000; i++ {
		var hist []types.Event
		for n := 1 + rng.Intn(3); n > 0; n-- {
			hist = append(hist, types.Event{JobID: str(), State: types.JobState(str()), Note: str(),
				Time: time.Unix(rng.Int63n(1<<34), rng.Int63n(3)*5e8).In(time.FixedZone("", 1800*(rng.Intn(5)-2)))})
		}
		enc, err := json.Marshal(hist)
		if err != nil {
			t.Fatal(err)
		}
		if !canonicalHistory(string(enc)) {
			t.Fatalf("json.Marshal output not taken as canonical: %s", enc)
		}
		for k := 0; k < 8; k++ {
			b := append([]byte(nil), enc...)
			switch p := rng.Intn(len(b)); rng.Intn(3) {
			case 0:
				b = append(b[:p:p], b[p+1:]...)
			case 1:
				b = append(b[:p:p], append([]byte(alphabet[rng.Intn(len(alphabet))]), b[p:]...)...)
			default:
				const edits = `\u0"e<9fa`
				b[p] = edits[rng.Intn(len(edits))]
			}
			if !canonicalHistory(string(b)) {
				continue
			}
			var back []types.Event
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatalf("canonical %q does not decode: %v", b, err)
			}
			if again, _ := json.Marshal(back); string(again) != string(b) {
				t.Fatalf("canonical %q re-encodes as %q", b, again)
			}
		}
	}
}

// TestEventEncodingMatchesJSON: appendEvent writes json.Marshal's bytes
// for events whose strings mix plain bytes with what encoding/json
// escapes, and whose times include ones it refuses.
func TestEventEncodingMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := []string{"a", "Z", " ", "<", ">", "&", `"`, `\`, "\n", "\x00", "\x7f", "\u2028", "é", "\xff"}
	str := func() string {
		var s string
		for n := rng.Intn(4); n > 0; n-- {
			s += alphabet[rng.Intn(len(alphabet))]
		}
		return s
	}
	for i := 0; i < 2000; i++ {
		at := []int64{0, 1526515200, -62135596801, 253402300800}[rng.Intn(4)]
		ev := types.Event{JobID: str(), State: types.JobState(str()), Note: str(),
			Time: time.Unix(at, rng.Int63n(3)*5e8).In(time.FixedZone("", []int{0, 3600, 86400}[rng.Intn(3)]))}
		got, err := appendEvent([]byte("prefix"), ev)
		want, wantErr := json.Marshal(ev)
		if (err == nil) != (wantErr == nil) || err == nil && string(got) != "prefix"+string(want) {
			t.Fatalf("appendEvent(%+v) = %q, %v; json.Marshal wrote %q, %v", ev, got, err, want, wantErr)
		}
	}
}

// TestHistoryAppendAllocs: appending a transition to a stored history
// allocates only the new history.
func TestHistoryAppendAllocs(t *testing.T) {
	at := time.Unix(1526515200, 5e8).UTC()
	raw, err := appendHistory(`[{"JobID":"job-00001","State":"QUEUED","Time":"2018-05-17T00:00:00Z","Note":"submitted"}]`,
		types.Event{JobID: "job-00001", State: types.StateDeploying, Time: at, Note: "attempt 1"})
	if err != nil || !canonicalHistory(raw) {
		t.Fatalf("%s: %v", raw, err)
	}
	ev := types.Event{JobID: "job-00001", State: types.StateProcessing, Time: at, Note: "learners training"}
	if n := testing.AllocsPerRun(100, func() { _, _ = appendHistory(raw, ev) }); n != 1 {
		t.Fatalf("appendHistory: %.1f allocations, want 1", n)
	}
}
