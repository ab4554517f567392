package store

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The keys the model test writes. Prefixes nest (/a, /a/, /a/b), a key
// sorts between a prefix and its extension (/ab between /a/ and /a\xff),
// and \xff keys sit at the top of a prefix's range.
var modelKeys = []string{"/a", "/a/", "/a/b", "/a/b/c", "/ab", "/b", "/a\xff", "/\xff"}

// modelPrefixes are the scans it checks: every key is one, plus prefixes
// that match everything, nothing, or fall between keys.
var modelPrefixes = append([]string{"", "/", "/c", "/a/b/c/d", "/a/\xff"}, modelKeys...)

// model is the reference the ordered index is checked against: each key's
// full version chain, rebuilt from the op log in a plain map, and a sort
// wherever the engine promises an order.
type model struct {
	chains    map[string][]version[string]
	applied   uint64
	truncated uint64
}

// kept is the part of key's chain the engine retains.
func (m *model) kept(key string) []version[string] {
	c := m.chains[key]
	return c[max(0, len(c)-DefaultHistoryLimit):]
}

func (m *model) at(key string, rev uint64) (string, uint64, bool) {
	c := m.kept(key)
	for i := len(c) - 1; i >= 0; i-- {
		if v := c[i]; v.rev <= rev {
			if v.tomb {
				break
			}
			return v.val, v.rev, true
		}
	}
	return "", 0, false
}

func (m *model) install(key string, v version[string]) {
	c := m.chains[key]
	if n := len(c); n > 0 && c[n-1].rev == v.rev {
		c[n-1] = v
	} else {
		c = append(c, v)
	}
	if n := len(c); n > DefaultHistoryLimit {
		m.truncated = max(m.truncated, c[n-DefaultHistoryLimit-1].rev)
	}
	m.chains[key] = c
}

func (m *model) apply(rev uint64, ops []OpOf[string]) {
	for _, op := range ops {
		if op.Kind == OpPut {
			m.install(op.Key, version[string]{rev: rev, val: op.Value})
		} else if _, _, live := m.at(op.Key, latestRev); live {
			m.install(op.Key, version[string]{rev: rev, tomb: true})
		}
	}
	m.applied = max(m.applied, rev)
}

func (m *model) scan(prefix string, rev uint64) []KVOf[string] {
	var out []KVOf[string]
	for k := range m.chains {
		if v, vr, ok := m.at(k, rev); ok && strings.HasPrefix(k, prefix) {
			out = append(out, KVOf[string]{Key: k, Value: v, Rev: vr})
		}
	}
	slices.SortFunc(out, func(a, b KVOf[string]) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// history is HistoryEvents' answer; compacted stands for ErrCompacted.
func (m *model) history(prefix string, from, to uint64) (out []EventOf[string], compacted bool) {
	if from < m.truncated {
		return nil, true
	}
	for k := range m.chains {
		for _, v := range m.kept(k) {
			if v.rev > from && v.rev <= to && strings.HasPrefix(k, prefix) {
				ev := EventOf[string]{Type: EventPut, Key: k, Value: v.val, Rev: v.rev}
				if v.tomb {
					ev.Type = EventDelete
				}
				out = append(out, ev)
			}
		}
	}
	slices.SortFunc(out, func(a, b EventOf[string]) int {
		return cmp.Or(cmp.Compare(a.Rev, b.Rev), strings.Compare(a.Key, b.Key))
	})
	return out, false
}

// TestOrderedIndexMatchesModel runs seeded random writes against an
// engine in each revision mode (Put, Delete and Commit in internal mode;
// ApplyAt and Import in external mode) and, after every one, compares
// ScanAt, ScanLatest, GetAt, HistoryEvents and Export at random prefixes
// and revisions with the model.
func TestOrderedIndexMatchesModel(t *testing.T) {
	for _, external := range []bool{false, true} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("external=%v/seed=%d", external, seed), func(t *testing.T) {
				checkAgainstModel(t, seed, external, 300)
			})
		}
	}
}

func checkAgainstModel(t *testing.T, seed int64, external bool, steps int) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngineOf[string](Config{ExternalRevs: external})
	defer e.Close()
	m := &model{chains: make(map[string][]version[string])}
	key := func() string { return modelKeys[rng.Intn(len(modelKeys))] }
	randOps := func(n int) []OpOf[string] {
		ops := make([]OpOf[string], n)
		for i := range ops {
			ops[i] = OpOf[string]{Kind: OpPut, Key: key(), Value: fmt.Sprint(rng.Intn(1000))}
			if rng.Intn(3) == 0 {
				ops[i] = OpOf[string]{Kind: OpDelete, Key: ops[i].Key}
			}
		}
		return ops
	}

	for step := 0; step < steps; step++ {
		var did string
		var rev, want uint64
		switch r := rng.Intn(20); {
		case !external && r < 8:
			ops := []OpOf[string]{{Kind: OpPut, Key: key(), Value: fmt.Sprint(step)}}
			did = fmt.Sprintf("Put %q", ops[0].Key)
			rev, _ = e.Put(ops[0].Key, ops[0].Value)
			want = m.applied + 1
			m.apply(want, ops)
		case !external && r < 12:
			k := key()
			did = fmt.Sprintf("Delete %q", k)
			if _, _, live := m.at(k, latestRev); live {
				want = m.applied + 1
				m.apply(want, []OpOf[string]{{Kind: OpDelete, Key: k}})
			}
			rev, _, _ = del(e, k)
		case !external:
			ops := randOps(1 + rng.Intn(4))
			did = fmt.Sprintf("Commit %v", ops)
			rev, _ = e.Commit(ops)
			want = m.applied + 1
			m.apply(want, ops)
		case r < 19:
			ops := randOps(rng.Intn(5))
			want = m.applied + 1 + uint64(rng.Intn(3))
			did = fmt.Sprintf("ApplyAt %d %v", want, ops)
			if _, err := e.ApplyAt(nil, want, ops); err != nil {
				t.Fatal(err)
			}
			rev = want
			m.apply(want, ops)
		default:
			var img []KVOf[string]
			for _, i := range rng.Perm(len(modelKeys))[:rng.Intn(len(modelKeys))] {
				img = append(img, KVOf[string]{Key: modelKeys[i], Value: fmt.Sprint(i), Rev: 1 + uint64(rng.Intn(int(m.applied)+3))})
			}
			floor := m.applied + uint64(rng.Intn(3))
			did = fmt.Sprintf("Import %v at least %d", img, floor)
			if err := e.Import(img, floor); err != nil {
				t.Fatal(err)
			}
			m.chains = make(map[string][]version[string])
			for _, kv := range img {
				m.install(kv.Key, version[string]{rev: kv.Rev, val: kv.Value})
				floor = max(floor, kv.Rev)
			}
			m.truncated = max(m.truncated, floor)
			m.applied = max(m.applied, floor)
			rev, want = 0, 0
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d, after %s: %s", step, did, fmt.Sprintf(format, args...))
		}
		if rev != want {
			fail("revision %d, want %d", rev, want)
		}
		if got := e.Snapshot(); got != m.applied {
			fail("Snapshot %d, want %d", got, m.applied)
		}

		prefix := modelPrefixes[rng.Intn(len(modelPrefixes))]
		at := uint64(rng.Intn(int(m.applied) + 2))
		if got, want := e.ScanAt(nil, prefix, at), m.scan(prefix, at); !slices.Equal(got, want) {
			fail("ScanAt(%q, %d) = %v, want %v", prefix, at, got, want)
		}
		prefix = modelPrefixes[rng.Intn(len(modelPrefixes))]
		if got, want := e.ScanLatest(prefix), m.scan(prefix, latestRev); !slices.Equal(got, want) {
			fail("ScanLatest(%q) = %v, want %v", prefix, got, want)
		}
		k := key()
		v, vr, ok := e.GetAt(k, at)
		if wv, wr, wok := m.at(k, at); v != wv || vr != wr || ok != wok {
			fail("GetAt(%q, %d) = (%q, %d, %v), want (%q, %d, %v)", k, at, v, vr, ok, wv, wr, wok)
		}
		prefix = modelPrefixes[rng.Intn(len(modelPrefixes))]
		from := uint64(rng.Intn(int(m.applied) + 1))
		to := from + uint64(rng.Intn(int(m.applied-from)+2))
		evs, err := e.HistoryEvents(prefix, from, to)
		wantEvs, compacted := m.history(prefix, from, to)
		if compacted != errors.Is(err, ErrCompacted) || (err != nil && !compacted) {
			fail("HistoryEvents(%q, %d, %d) error %v, want compacted=%v (floor %d)", prefix, from, to, err, compacted, m.truncated)
		}
		if !slices.Equal(evs, wantEvs) {
			fail("HistoryEvents(%q, %d, %d) = %v, want %v", prefix, from, to, evs, wantEvs)
		}
		if got, want := e.Export(), m.scan("", latestRev); !slices.Equal(got, want) {
			fail("Export = %v, want %v", got, want)
		}
	}
}
