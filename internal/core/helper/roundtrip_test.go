package helper

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core/learner"
	"repro/internal/core/types"
	"repro/internal/events"
	"repro/internal/netsim"
	"repro/internal/nfs"
	"repro/internal/objectstore"
)

// tripCounter is a clock that counts the NFS round trips its server
// pays: every Sleep of the link's latency.
type tripCounter struct {
	clock.Clock
	trips atomic.Int64
}

func (c *tripCounter) Sleep(d time.Duration) {
	if d == netsim.NFSLink.Latency {
		c.trips.Add(1)
	}
	c.Clock.Sleep(d)
}

// TestCurrentLearnerStatusIsOneRoundTrip: a learner's status, exit and
// progress files are read in one round trip, each counted as a read, and
// the answer carries the status envelope's trace context and the
// progress detail.
func TestCurrentLearnerStatusIsOneRoundTrip(t *testing.T) {
	clk := clock.NewManual()
	t.Cleanup(clk.Close)
	srv := nfs.NewServer(clk)
	vol, err := srv.Provision("v")
	if err != nil {
		t.Fatal(err)
	}
	f := learner.FilesOf(0)
	env, err := events.LearnerStatus("j", types.StatusUpdate{Learner: 0, Status: types.LearnerTraining, Time: clk.Now()}).
		WithTrace("trace-1", "span-1").Encode()
	if err != nil {
		t.Fatal(err)
	}
	vol.Compound(nfs.Call{Path: f.Status, Data: env}, nfs.Call{Path: f.Progress, Data: []byte("640")},
		nfs.Call{Path: f.ExitCode, Data: []byte("0")})

	type answer struct {
		status types.LearnerStatus
		src    learnerSource
		ok     bool
	}
	done := make(chan answer, 1)
	go func() {
		status, src, ok := currentLearnerStatus(vol, f, statLearner(vol, f))
		done <- answer{status, src, ok}
	}()
	for timeout := time.After(5 * time.Second); clk.PendingEvents() == 0; runtime.Gosched() {
		select {
		case <-timeout:
			t.Fatal("the read never started its round trip")
		default:
		}
	}
	clk.Advance(netsim.NFSLink.Latency)
	var got answer
	select {
	case got = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the read took more than one round trip")
	}
	if got.status != types.LearnerCompleted || !got.ok || got.src.detail != "images=640" ||
		got.src.env.TraceID != "trace-1" || got.src.env.SpanID != "span-1" {
		t.Fatalf("read (%q, %+v, %v), want COMPLETED with images=640 and the status file's trace context", got.status, got.src, got.ok)
	}
	if n := srv.OpCounts()["read"]; n != 3 {
		t.Fatalf("%d reads counted, want 3", n)
	}
}

// TestLogCollectorShipsAPassInOneRoundTrip: every file a pass finds
// changed — here two learners' logs and metrics — is read in one round
// trip and shipped.
func TestLogCollectorShipsAPassInOneRoundTrip(t *testing.T) {
	d, clk := newTestDeps(t)
	trips := &tripCounter{Clock: clk}
	d.NFS = nfs.NewServer(trips)
	creds := objectstore.Credentials{AccessKey: "ak", SecretKey: "sk"}
	if err := d.ObjectStore.CreateBucket("results", creds); err != nil {
		t.Fatal(err)
	}
	// Written before the container's start delay is over, in a round trip
	// paid here: its first pass finds all four changed.
	vol := startHelperPod(t, d, helperManifest(2), "log-collector")
	var calls []nfs.Call
	for l := 0; l < 2; l++ {
		calls = append(calls, nfs.Call{Path: learner.LogPath(l), Data: []byte("log\n")},
			nfs.Call{Path: learner.MetricsPath(l), Data: []byte("metric\n")})
	}
	vol.Compound(calls...)
	deadline := clk.Now().Add(time.Minute)
	for {
		keys, err := d.ObjectStore.List("results", creds)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) == 4 {
			break
		}
		if !clk.Now().Before(deadline) {
			t.Fatalf("shipped %v within a minute, want 4 objects", keys)
		}
		clk.Sleep(100 * time.Millisecond)
	}
	if n := trips.trips.Load(); n != 1 {
		t.Fatalf("the pass took %d NFS round trips, want 1", n)
	}
	if n := d.NFS.OpCounts()["read"]; n != 4 {
		t.Fatalf("%d reads counted, want 4", n)
	}
}
