package helper

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core/types"
)

// FuzzControllerJournal holds the controller journal's codec to
// encoding/json: for any bytes the loader returns what json.Unmarshal
// returns, or a fresh journal where it fails, and for whatever
// json.Unmarshal reads appendJSON writes json.Marshal's bytes. The
// committed corpus (testdata/fuzz) holds journals the encoder must hand
// to json.Marshal, and the corrupt journal a controller once half-read.
func FuzzControllerJournal(f *testing.F) {
	f.Add(`{"last":{"0":"TRAINING","1":"COMPLETED","10":"STARTING","2":"FAILED"},"acked":{"0":true,"1":false}}`)
	f.Add(`{"last":{"0":"TRAINING"},"acked":5}`)
	f.Fuzz(func(t *testing.T, raw string) {
		var want controllerJournal
		if json.Unmarshal([]byte(raw), &want) != nil {
			want = controllerJournal{}
		}
		if got := decodeControllerJournal([]byte(raw)); !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeControllerJournal(%q) = %+v, want %+v", raw, got, want)
		}
		enc, err := want.appendJSON([]byte("prefix"))
		ref, refErr := json.Marshal(&want)
		if (err == nil) != (refErr == nil) || err == nil && string(enc) != "prefix"+string(ref) {
			t.Fatalf("appendJSON(%+v) = %q, %v; json.Marshal wrote %q, %v", want, enc, err, ref, refErr)
		}
	})
}

// TestControllerJournalAllocs: saving a journal into a buffer it has
// already grown allocates at most once.
func TestControllerJournalAllocs(t *testing.T) {
	j := controllerJournal{
		Last:  map[string]types.LearnerStatus{"0": types.LearnerTraining, "1": types.LearnerCompleted, "2": types.LearnerStarting},
		Acked: map[string]bool{"1": true},
	}
	buf, err := j.appendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = j.appendJSON(buf[:0]) }); n > 1 {
		t.Fatalf("appendJSON: %.1f allocations, want at most 1", n)
	}
}
