package nfs

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// freeClock is a manual clock whose Sleep returns at once: a round trip
// costs nothing, so a test can call data operations in a loop.
type freeClock struct{ *clock.Sim }

func (freeClock) Sleep(time.Duration) {}

// readOn runs a ReadCompound of paths on its own goroutine.
func readOn(v *Volume, paths ...string) <-chan [][]byte {
	done := make(chan [][]byte, 1)
	go func() {
		got, err := v.ReadCompound(nil, paths...)
		if err != nil {
			got = nil
		}
		done <- got
	}()
	return done
}

// TestReadCompoundIsOneRoundTrip: N reads share one round trip — one
// event parked on the clock, results after one Latency — and each is
// counted as a read, the absent file's too, which reads as nil.
func TestReadCompoundIsOneRoundTrip(t *testing.T) {
	clk := clock.NewManual()
	t.Cleanup(clk.Close)
	s := NewServer(clk)
	v, err := s.Provision("job-1")
	if err != nil {
		t.Fatal(err)
	}
	v.Compound(Call{Path: "status", Data: []byte("TRAINING")}, Call{Path: "empty"}, Call{Path: "progress", Data: []byte("64")})
	done := readOn(v, "status", "missing", "empty", "progress")
	waitParked(t, clk, 1)
	if n := clk.PendingEvents(); n != 1 {
		t.Fatalf("a compound of 4 reads parked %d events, want 1", n)
	}
	clk.Advance(s.link.Latency - 1)
	select {
	case <-done:
		t.Fatal("the compound read returned before its round trip")
	default:
	}
	clk.Advance(1)
	var got [][]byte
	select {
	case got = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the compound read did not return after one round trip")
	}
	if len(got) != 4 || string(got[0]) != "TRAINING" || got[1] != nil || got[2] == nil || len(got[2]) != 0 || string(got[3]) != "64" {
		t.Fatalf("results %q, want [TRAINING <nil> \"\" 64] with the empty file non-nil", got)
	}
	if n := s.OpCounts()["read"]; n != 4 {
		t.Fatalf("%d reads counted, want 4: one per path", n)
	}
}

// TestReadCompoundFailedByFaultError: a soft-mount outage fails the whole
// call at once, and nothing is counted.
func TestReadCompoundFailedByFaultError(t *testing.T) {
	clk := clock.NewManual()
	t.Cleanup(clk.Close)
	s := NewServer(clk)
	v, err := s.Provision("job-1")
	if err != nil {
		t.Fatal(err)
	}
	v.Compound(Call{Path: "a", Data: []byte("x")})
	s.InjectFault(FaultError)
	got, err := v.ReadCompound(make([][]byte, 2), "a", "b")
	if !errors.Is(err, ErrFaulted) || len(got) != 0 {
		t.Fatalf("ReadCompound under FaultError = (%q, %v), want no results and ErrFaulted", got, err)
	}
	if n := s.OpCounts()["read"]; n != 0 {
		t.Fatalf("%d reads counted under FaultError, want 0", n)
	}
}

// TestReadCompoundStallsLikeARead: a compound read that meets a
// hard-mount outage waits for the heal with nothing parked on the clock,
// resumes on its poll cadence's first tick after it, and then pays its
// round trip — and reads what the volume holds then.
func TestReadCompoundStallsLikeARead(t *testing.T) {
	clk := &nowCounter{Sim: clock.NewManual()}
	t.Cleanup(clk.Close)
	s := NewServer(clk)
	v, err := s.Provision("job-1")
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFault(FaultStall)
	epoch := clk.Sim.Now()
	const called, heal = 7 * time.Millisecond, 10 * time.Second
	clk.Advance(called)
	reads := clk.reads.Load()
	done := readOn(v, "a", "b")
	for timeout := time.After(5 * time.Second); clk.reads.Load() == reads; runtime.Gosched() {
		select {
		case <-timeout:
			t.Fatal("the compound read never reached the stall")
		default:
		}
	}
	clk.Advance(heal - called)
	if n := clk.PendingEvents(); n != 0 {
		t.Fatalf("%d clock events parked by a stalled compound read, want 0", n)
	}
	v.land(Call{Path: "a", Data: []byte("late")}) // written during the outage
	s.Heal()
	waitParked(t, clk.Sim, 1)
	resume := called + ((heal-called)/faultPollGrain+1)*faultPollGrain
	clk.Advance(resume - clk.Sim.Now().Sub(epoch))
	waitParked(t, clk.Sim, 1) // the resumed read is in its round trip
	clk.Advance(s.link.Latency - 1)
	select {
	case <-done:
		t.Fatal("the stalled compound read returned before its round trip")
	default:
	}
	clk.Advance(1)
	select {
	case got := <-done:
		if len(got) != 2 || string(got[0]) != "late" || got[1] != nil {
			t.Fatalf("after the heal: results %q, want [late <nil>]", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the healed compound read did not return")
	}
}

// TestReadCompoundSeesAWriteCompoundWhole: the reads of one compound are
// one snapshot, so a Compound that rewrites both files is in both
// results or in neither.
func TestReadCompoundSeesAWriteCompoundWhole(t *testing.T) {
	clk := freeClock{clock.NewManual()}
	t.Cleanup(clk.Close)
	s := NewServer(clk)
	v, err := s.Provision("job-1")
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			n := []byte(strconv.Itoa(i))
			v.Compound(Call{Path: "a", Data: n}, Call{Path: "b", Data: n})
		}
	}()
	var got [][]byte
	for i := 0; i < rounds; i++ {
		if got, err = v.ReadCompound(got, "a", "b"); err != nil {
			t.Fatal(err)
		}
		if string(got[0]) != string(got[1]) {
			t.Fatalf("read %d saw a = %q, b = %q: half a compound", i, got[0], got[1])
		}
	}
	wg.Wait()
}

// TestReadCompoundReusesItsBuffer: with the caller's buffer reused, a
// compound read allocates the copies of the files it returns and nothing
// else.
func TestReadCompoundReusesItsBuffer(t *testing.T) {
	clk := freeClock{clock.NewManual()}
	t.Cleanup(clk.Close)
	s := NewServer(clk)
	v, err := s.Provision("job-1")
	if err != nil {
		t.Fatal(err)
	}
	v.Compound(Call{Path: "log", Data: []byte("line\n")}, Call{Path: "metrics", Data: []byte("1\n")})
	paths := []string{"log", "metrics", "missing"}
	dst, err := v.ReadCompound(nil, paths...)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst, _ = v.ReadCompound(dst, paths...)
	})
	if allocs != 2 {
		t.Fatalf("a compound read of 2 files and an absent one into a reused buffer allocated %v objects, want 2: the copies", allocs)
	}
}
