package nfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/metrics"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	clk := clock.NewSim()
	t.Cleanup(clk.Close)
	return NewServer(clk)
}

func TestProvisionAndMount(t *testing.T) {
	s := newTestServer(t)
	v, err := s.Provision("job-1")
	if err != nil {
		t.Fatal(err)
	}
	// A second mount handle sees the same files (shared semantics).
	v.Write("shared.txt", []byte("hello"))
	v2, err := s.Volume("job-1")
	if err != nil {
		t.Fatal(err)
	}
	data, err := v2.Read("shared.txt")
	if err != nil || string(data) != "hello" {
		t.Fatalf("read = (%q,%v)", data, err)
	}
}

func TestProvisionCollision(t *testing.T) {
	s := newTestServer(t)
	if _, err := s.Provision("job-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Provision("job-1"); !errors.Is(err, ErrVolumeExists) {
		t.Fatalf("err = %v, want ErrVolumeExists", err)
	}
}

func TestMountMissingVolume(t *testing.T) {
	s := newTestServer(t)
	if _, err := s.Volume("nope"); !errors.Is(err, ErrNoVolume) {
		t.Fatalf("err = %v, want ErrNoVolume", err)
	}
}

func TestAppendAccumulates(t *testing.T) {
	s := newTestServer(t)
	v, _ := s.Provision("job-1")
	for i := 0; i < 3; i++ {
		v.Append("learner-0/training.log", []byte(fmt.Sprintf("line %d\n", i)))
	}
	data, err := v.Read("learner-0/training.log")
	if err != nil {
		t.Fatal(err)
	}
	want := "line 0\nline 1\nline 2\n"
	if string(data) != want {
		t.Fatalf("log = %q, want %q", data, want)
	}
	if fi, ok := v.Stat("learner-0/training.log"); !ok || fi.Size != int64(len(want)) {
		t.Fatalf("stat = (%+v,%v), want size %d", fi, ok, len(want))
	}
}

func TestReadMissingFile(t *testing.T) {
	s := newTestServer(t)
	v, _ := s.Provision("job-1")
	if _, err := v.Read("nope"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("err = %v, want ErrNoFile", err)
	}
}

func TestRemoveAndExists(t *testing.T) {
	s := newTestServer(t)
	v, _ := s.Provision("job-1")
	v.Write("f", []byte("x"))
	if !v.Exists("f") {
		t.Fatal("file should exist")
	}
	v.Remove("f")
	if v.Exists("f") {
		t.Fatal("file should be gone")
	}
}

func TestExitCodeConvention(t *testing.T) {
	s := newTestServer(t)
	v, _ := s.Provision("job-1")
	if _, ok := v.ReadExitCode(ExitCodePath(0)); ok {
		t.Fatal("exit code present before termination")
	}
	v.WriteExitCode(ExitCodePath(0), 0)
	v.WriteExitCode(ExitCodePath(1), 137) // OOM-killed learner
	if code, ok := v.ReadExitCode(ExitCodePath(0)); !ok || code != 0 {
		t.Fatalf("learner 0 = (%d,%v)", code, ok)
	}
	if code, ok := v.ReadExitCode(ExitCodePath(1)); !ok || code != 137 {
		t.Fatalf("learner 1 = (%d,%v)", code, ok)
	}
}

func TestExitCodeMalformed(t *testing.T) {
	s := newTestServer(t)
	v, _ := s.Provision("job-1")
	v.Write(ExitCodePath(0), []byte("not-a-number"))
	if _, ok := v.ReadExitCode(ExitCodePath(0)); ok {
		t.Fatal("malformed exit code parsed as ok")
	}
}

func TestReleaseDeletesVolume(t *testing.T) {
	s := newTestServer(t)
	if _, err := s.Provision("job-1"); err != nil {
		t.Fatal(err)
	}
	s.Release("job-1")
	if _, err := s.Volume("job-1"); !errors.Is(err, ErrNoVolume) {
		t.Fatalf("err = %v, want ErrNoVolume", err)
	}
}

func TestDataIsolatedFromCallers(t *testing.T) {
	s := newTestServer(t)
	v, _ := s.Provision("job-1")
	data := []byte("abc")
	v.Write("f", data)
	data[0] = 'X'
	got, _ := v.Read("f")
	if !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("volume aliased caller slice: %q", got)
	}
	got[0] = 'Y'
	got2, _ := v.Read("f")
	if !bytes.Equal(got2, []byte("abc")) {
		t.Fatalf("volume aliased returned slice: %q", got2)
	}
}

func TestConcurrentAppendsAllRecorded(t *testing.T) {
	s := newTestServer(t)
	v, _ := s.Provision("job-1")
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.Append("log", []byte("x"))
		}()
	}
	wg.Wait()
	if fi, _ := v.Stat("log"); fi.Size != n {
		t.Fatalf("size = %d, want %d", fi.Size, n)
	}
}

// TestStatGenMovesOnEveryLandedChange: Gen is what a poller compares, so
// it must move on every change a Read could observe — a rewrite of equal
// length and a re-creation included — and on nothing else.
func TestStatGenMovesOnEveryLandedChange(t *testing.T) {
	s := newTestServer(t)
	v, _ := s.Provision("job-1")
	if fi, ok := v.Stat("f"); ok || fi != (FileInfo{}) {
		t.Fatalf("absent file: stat = (%+v,%v)", fi, ok)
	}
	gen := func() uint64 {
		t.Helper()
		fi, ok := v.Stat("f")
		if !ok || fi.Gen == 0 {
			t.Fatalf("stat = (%+v,%v), want a present file with Gen > 0", fi, ok)
		}
		return fi.Gen
	}
	v.Write("f", []byte("aaaa"))
	g1 := gen()
	if g := gen(); g != g1 {
		t.Fatalf("Gen moved with no change: %d -> %d", g1, g)
	}
	if _, err := v.Read("f"); err != nil {
		t.Fatal(err)
	}
	v.Write("other", []byte("x"))
	if g := gen(); g != g1 {
		t.Fatalf("Gen moved on a read or another file's write: %d -> %d", g1, g)
	}
	v.Write("f", []byte("bbbb")) // same length
	g2 := gen()
	if g2 == g1 {
		t.Fatal("same-size rewrite left Gen unchanged")
	}
	v.Append("f", []byte("c"))
	g3 := gen()
	if g3 == g2 {
		t.Fatal("append left Gen unchanged")
	}
	v.Remove("f")
	v.Write("f", []byte("bbbbc"))
	if g := gen(); g == g3 {
		t.Fatal("re-created file reuses the removed file's Gen")
	}

	// A write dropped by a soft-mount fault did not land: no bump. Stat
	// itself is an attribute call and keeps answering through the fault.
	before := gen()
	s.InjectFault(FaultError)
	v.Write("f", []byte("lost!"))
	v.Append("f", []byte("lost"))
	if g := gen(); g != before {
		t.Fatalf("dropped write moved Gen: %d -> %d", before, g)
	}
	s.InjectFault(FaultStall)
	if g := gen(); g != before {
		t.Fatalf("Gen under stall = %d, want %d", g, before)
	}
	s.Heal()
}

func TestOpCountsByKind(t *testing.T) {
	s := newTestServer(t)
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	v, _ := s.Provision("job-1")
	v.Write("f", []byte("x"))
	v.Append("f", []byte("y"))
	v.Append("f", []byte("z"))
	_, _ = v.Read("f")
	_, _ = v.Read("missing") // a round trip that learns nothing still counts
	v.Stat("f")
	v.Exists("f")
	s.InjectFault(FaultError)
	v.Write("f", []byte("dropped"))
	_, _ = v.Read("f")
	s.Heal()

	want := map[string]uint64{"read": 2, "write": 1, "append": 2, "stat": 2}
	got := s.OpCounts()
	for op, n := range want {
		if got[op] != n {
			t.Errorf("OpCounts[%q] = %d, want %d", op, got[op], n)
		}
		if c := reg.Counter("nfs_ops", op); c != float64(n) {
			t.Errorf("nfs_ops{%s} = %v, want %d", op, c, n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("OpCounts = %v, want exactly the kinds %v", got, want)
	}
}

// token takes the subscription's token if there is one.
func token(sub *Subscription) bool {
	select {
	case <-sub.C():
		return true
	default:
		return false
	}
}

// TestSubscription: a subscriber is told that one of its paths changed —
// by every call that changes it and by nothing else — with one token
// however many changes, and never at the writer's expense.
func TestSubscription(t *testing.T) {
	s := newTestServer(t)
	v, err := s.Provision("job-1")
	if err != nil {
		t.Fatal(err)
	}
	sub := v.Subscribe("status", "exit")
	if token(sub) {
		t.Fatal("token before any write")
	}
	v.Write("other", []byte("x"))
	v.Append("other", []byte("x"))
	v.Remove("other")
	if token(sub) {
		t.Fatal("signalled by a path it did not subscribe to")
	}
	for name, change := range map[string]func(){
		"Write":  func() { v.Write("status", []byte("x")) },
		"Append": func() { v.Append("exit", []byte("0")) },
		"Remove": func() { v.Remove("status") },
	} {
		change()
		if !token(sub) {
			t.Fatalf("%s of a subscribed path left no token", name)
		}
	}

	// Changes coalesce, and an undrained subscriber holds no writer up.
	for i := 0; i < 10; i++ {
		v.Write("status", []byte("x"))
		v.Append("exit", []byte("0"))
	}
	if !token(sub) || token(sub) {
		t.Fatal("twenty changes should leave exactly one token")
	}

	// A write the fault dropped changed nothing.
	s.InjectFault(FaultError)
	v.Write("status", []byte("lost"))
	v.Append("exit", []byte("lost"))
	s.Heal()
	if token(sub) {
		t.Fatal("signalled by a write that FaultError dropped")
	}

	other := v.Subscribe("status")
	sub.Close()
	v.Write("status", []byte("x"))
	if token(sub) {
		t.Fatal("signalled after Close")
	}
	if !token(other) {
		t.Fatal("closing one subscription silenced another on the same path")
	}
}

// Remove deletes the file if present. Nothing on the platform removes a
// file; the tests use it as one more kind of landed change.
func (v *Volume) Remove(path string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.files, path)
	v.changedLocked(path)
}
