package main

import (
	"bytes"
	"sort"
	"testing"
)

var allWorkloads = []string{wlFleetSteady, wlFleetFaults, wlMetaWrite, wlMetaMixed}

func mustGenerate(t *testing.T, workload string, seed int64) *inputs {
	t.Helper()
	in, err := generate(workload, seed, 2, 2) // small counts keep the test fast
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestEqualSeedsGiveByteEqualInputs(t *testing.T) {
	for _, wl := range allWorkloads {
		a, b, c := mustGenerate(t, wl, 7), mustGenerate(t, wl, 7), mustGenerate(t, wl, 8)
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: two generations from seed 7 differ", wl)
		}
		if bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", wl)
		}
		if a.echo().Digest != b.echo().Digest || a.echo().Digest == c.echo().Digest {
			t.Errorf("%s: digest does not follow the inputs", wl)
		}
	}
	if _, err := generate("no-such-workload", 1, 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The seed orders fleet-steady's jobs; it must not change what they are,
// or a metric's spread across seeds would be the dice's.
func TestSteadyMixIsTheSameMultisetForEverySeed(t *testing.T) {
	shape := func(seed int64) []string {
		in, err := generate(wlFleetSteady, seed, referenceSeconds, 2)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		gangs := 0
		for _, j := range in.Jobs {
			out = append(out, j.Tenant+"/"+j.Framework+"/"+j.Model)
			if j.Learners == 2 {
				gangs++
			}
		}
		if gangs*tenants != len(in.Jobs) {
			t.Errorf("seed %d: %d two-learner gangs among %d jobs, want one in five", seed, gangs, len(in.Jobs))
		}
		sort.Strings(out)
		return out
	}
	a, b := shape(1), shape(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job multisets differ between seeds: %v vs %v", a, b)
		}
	}
}

func TestFaultPlanHasEveryKindEquallyOften(t *testing.T) {
	in, err := generate(wlFleetFaults, 3, 2*referenceSeconds, 2)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, f := range in.Faults {
		count[f.Kind]++
		if f.Victim < 0 || f.Victim >= len(in.Jobs) {
			t.Errorf("fault victim %d is not a job", f.Victim)
		}
	}
	for _, kind := range faultKinds {
		if count[kind] != in.Sizes.FaultsPerKind {
			t.Errorf("%d faults of kind %s, want %d", count[kind], kind, in.Sizes.FaultsPerKind)
		}
	}
}

// The generator's reference map must be what replaying the scripts in
// any client interleaving yields: keys are client-disjoint.
func TestScriptsMatchTheirReferenceMap(t *testing.T) {
	for _, wl := range []string{wlMetaWrite, wlMetaMixed} {
		in := mustGenerate(t, wl, 5)
		state := map[string]string{}
		for _, p := range in.Preload {
			state[p.Key] = p.Value
		}
		owner := map[string]int{}
		calls := 0
		for c := len(in.Scripts) - 1; c >= 0; c-- { // reverse client order: must not matter
			for _, op := range in.Scripts[c] {
				calls++
				if op.Kind == "get" {
					if v, ok := state[op.Key]; ok != op.WantFound || v != op.WantValue {
						t.Fatalf("%s: get %s predicts %q/%v, replay has %q/%v", wl, op.Key, op.WantValue, op.WantFound, v, ok)
					}
				}
				if op.Kind == "txn" {
					if v, ok := state[op.Key]; ok != op.GuardExists || v != op.GuardPrev {
						t.Fatalf("%s: txn guard on %s would fail", wl, op.Key)
					}
				}
				for _, w := range op.writes() {
					if prev, seen := owner[w.Key]; seen && prev != c {
						t.Fatalf("%s: key %s written by clients %d and %d", wl, w.Key, prev, c)
					}
					owner[w.Key] = c
					if w.Value == "" {
						if _, live := state[w.Key]; !live {
							t.Fatalf("%s: delete of absent key %s yields no watch event", wl, w.Key)
						}
						delete(state, w.Key)
					} else {
						if len(w.Value) != valueBytes {
							t.Fatalf("%s: value of %d bytes, want %d", wl, len(w.Value), valueBytes)
						}
						state[w.Key] = w.Value
					}
				}
			}
		}
		if calls != in.KVCalls || len(state) != len(in.Final) {
			t.Fatalf("%s: %d calls (echo says %d), %d final keys (reference has %d)", wl, calls, in.KVCalls, len(state), len(in.Final))
		}
		for _, p := range in.Final {
			if state[p.Key] != p.Value {
				t.Fatalf("%s: final value of %s differs from the reference", wl, p.Key)
			}
		}
	}
}

func TestMixedCycleIsThePlatformRatio(t *testing.T) {
	count := map[string]int{}
	for _, kind := range mixedCycle {
		count[kind]++
	}
	if count["put"] != 12 || count["delete"] != 2 || count["get"] != 2 || count["range"] != 4 {
		t.Errorf("cycle is %v, want 12 put / 2 delete / 2 get / 4 range", count)
	}
}
