package guardian

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core/types"
)

// fuzzJournal builds a journal from fuzzed fields: steps split on '/', n
// learners keyed from first (so keys 2 and 10 meet, and negative ones),
// every other one with a detail, acks where mask has a bit set, times in a
// zone zoneMin minutes east.
func fuzzJournal(deployed bool, steps string, rev uint64, first int8, n uint8, status, detail string, unixNano int64, zoneMin int16, mask uint16) *journal {
	j := &journal{Deployed: deployed, MonitorRev: rev}
	if steps != "" {
		j.Steps = strings.Split(steps, "/")
	}
	zone := time.FixedZone("", int(zoneMin)*60)
	for i := 0; i < int(n%16); i++ {
		l := int(first) + i
		if j.Statuses == nil {
			j.Statuses, j.Acks = map[int]types.StatusUpdate{}, map[int]bool{}
		}
		u := types.StatusUpdate{Learner: l, Status: types.LearnerStatus(status), Time: time.Unix(0, unixNano+int64(i)).In(zone)}
		if i%2 == 1 {
			u.Detail = detail
		}
		j.Statuses[l] = u
		if mask&(1<<i) != 0 {
			j.Acks[l] = i%3 != 0
		}
	}
	return j
}

// checkDecode holds decodeJournal to encoding/json on raw: it returns
// what json.Unmarshal returns, or an empty journal where it fails.
func checkDecode(t *testing.T, raw string) {
	t.Helper()
	var want journal
	if err := json.Unmarshal([]byte(raw), &want); err != nil {
		want = journal{}
	}
	if got := decodeJournal(raw); !reflect.DeepEqual(*got, want) {
		t.Fatalf("decodeJournal(%q) = %+v, want %+v", raw, *got, want)
	}
}

// FuzzJournalCodec: appendJSON writes what json.Marshal writes (or fails
// where it fails), what it writes decodes to a journal that encodes to the
// same bytes again, and decodeJournal reads any raw bytes as
// json.Unmarshal does (checkDecode). The committed corpus (testdata/fuzz)
// holds the journals a monitor writes, keys whose decimal order is not
// their numeric order, strings and times that take json.Marshal's path,
// and stored journals in other layouts.
func FuzzJournalCodec(f *testing.F) {
	f.Add(false, "", uint64(0), int8(0), uint8(0), "", "", int64(0), int16(0), uint16(0), "")
	f.Add(true, "volume/helper/gang/learners/netpol", uint64(412), int8(0), uint8(2), "TRAINING", "", int64(1_700_000_000_000_000_000), int16(0), uint16(0),
		`{"deployed":true,"steps":["volume"],"monitor_rev":7,"statuses":{"0":{"learner":0,"status":"TRAINING","time":"2023-11-14T22:13:20Z"}},"acks":{"0":true}}`)
	f.Fuzz(func(t *testing.T, deployed bool, steps string, rev uint64, first int8, n uint8, status, detail string, unixNano int64, zoneMin int16, mask uint16, raw string) {
		checkDecode(t, raw)
		j := fuzzJournal(deployed, steps, rev, first, n, status, detail, unixNano, zoneMin, mask)
		want, wantErr := json.Marshal(j)
		got, err := j.appendJSON([]byte("prefix"))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("appendJSON error %v, json.Marshal error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if string(got) != "prefix"+string(want) {
			t.Fatalf("appendJSON wrote\n%s\njson.Marshal\n%s", got[len("prefix"):], want)
		}
		checkDecode(t, string(want))
		// A journal appendJSON writes itself reads back as the same
		// journal. One it hands to json.Marshal may come back normalised
		// once (invalid UTF-8 reads back as U+FFFD), and is stable from
		// there.
		again, err := decodeJournal(string(want)).appendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if j.plain() && string(again) != string(want) {
			t.Fatalf("decoded and encoded again:\n%s\nwant\n%s", again, want)
		}
		if third, err := decodeJournal(string(again)).appendJSON(nil); err != nil || string(third) != string(again) {
			t.Fatalf("a second round trip changed\n%s\ninto\n%s (%v)", again, third, err)
		}
	})
}

// TestJournalEncodeAllocs: encoding a two-learner journal into a buffer it
// has already grown allocates nothing.
func TestJournalEncodeAllocs(t *testing.T) {
	j := fuzzJournal(true, "volume/helper/gang/learners/netpol", 412, 0, 2, "TRAINING", "exit 0", 1_700_000_000_000_000_000, 0, 3)
	buf, err := j.appendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = j.appendJSON(buf[:0]) }); allocs != 0 {
		t.Fatalf("%.1f allocations per encode, want 0", allocs)
	}
}
