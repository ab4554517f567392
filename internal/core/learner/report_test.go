package learner

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
	"repro/internal/core/types"
	"repro/internal/events"
	"repro/internal/nfs"
)

// stepUntil runs clk one instant at a time, each to the point where every
// goroutine it woke is blocked again, until done reports true after one.
func stepUntil(t *testing.T, clk *clock.Sim, what string, done func() bool) {
	t.Helper()
	for deadline := clk.Now().Add(time.Hour); !done(); {
		next, ok := clk.NextDeadline()
		if !ok || next.After(deadline) {
			t.Fatalf("no instant in the next hour lands %s", what)
		}
		clocktest.Run(clk, next.Sub(clk.Now()))
	}
}

// gens is the Gen of the status, log and exit files, 0 while absent.
func gens(vol *nfs.Volume, f Files) [3]uint64 {
	var g [3]uint64
	for i, path := range []string{f.Status, f.Log, f.ExitCode} {
		info, _ := vol.Stat(path)
		g[i] = info.Gen
	}
	return g
}

// TestStartingReportLandsInOneInstant: the STARTING status and the first
// log line land in the same instant, in that order, with consecutive
// Gens.
func TestStartingReportLandsInOneInstant(t *testing.T) {
	clk := clock.NewManual()
	d := newTestDepsOn(t, clk)
	vol := startLearnerPod(t, d, smallManifest(), true)
	f := FilesOf(0)
	stepUntil(t, clk, "the STARTING status", func() bool { return vol.Exists(f.Status) })
	g := gens(vol, f)
	if g[1] != g[0]+1 {
		t.Fatalf("in the instant STARTING landed, Gens status %d, log %d: want the log line next, in the same instant", g[0], g[1])
	}
	// The learner writes on while a Read pays its round trip, so the log,
	// appended to only by the next report, is the file read back.
	log := readOn(t, clk, vol, f.Log)
	if first, _, _ := bytes.Cut(log, []byte("\n")); !bytes.Contains(first, []byte("starting (incarnation 0)")) {
		t.Fatalf("log = %q, want the starting line first", log)
	}
}

// TestCompletedReportLandsTogether: COMPLETED, the last log line and the
// exit code land in one instant, with consecutive Gens, and none of them
// lands before it. The test logs what a clean incarnation costs, from pod
// creation to its exit file.
func TestCompletedReportLandsTogether(t *testing.T) {
	clk := clock.NewManual()
	d := newTestDepsOn(t, clk)
	m := smallManifest()
	m.DatasetImages = 32 // one training chunk
	start := clk.Instants()
	vol := startLearnerPod(t, d, m, true)
	f := FilesOf(0)
	var before, now [3]uint64
	stepUntil(t, clk, "the exit code", func() bool {
		before, now = now, gens(vol, f)
		return now[2] != 0
	})
	t.Logf("a clean one-chunk incarnation fires %d instants from pod creation to its exit file", clk.Instants()-start)
	if now[0] != now[2]-2 || now[1] != now[2]-1 {
		t.Fatalf("Gens status %d, log %d, exit %d: want consecutive, in that order", now[0], now[1], now[2])
	}
	if before[0] == now[0] || before[1] == now[1] {
		t.Fatalf("the status or the log line landed before the exit code: Gens %v an instant before, %v with it", before, now)
	}
	env, ok := events.Decode(readOn(t, clk, vol, f.Status))
	if !ok || types.LearnerStatus(env.Status) != types.LearnerCompleted {
		t.Fatalf("last status = %+v (decoded %v), want COMPLETED", env, ok)
	}
	if log := readOn(t, clk, vol, f.Log); !bytes.HasSuffix(bytes.TrimSpace(log), []byte("training complete: 32 images")) {
		t.Fatalf("log = %q, want the completion line last", log)
	}
	if got := string(readOn(t, clk, vol, f.ExitCode)); got != "0" {
		t.Fatalf("exit file = %q, want 0", got)
	}
}

// TestCompletedReportDroppedByFaultError: a soft-mount outage that meets
// the COMPLETED report drops its status, log line and exit code alike,
// and a heal does not bring them back.
func TestCompletedReportDroppedByFaultError(t *testing.T) {
	clk := clock.NewManual()
	d := newTestDepsOn(t, clk)
	m := smallManifest()
	m.DatasetImages = 32 // one training chunk
	vol := startLearnerPod(t, d, m, true)
	f := FilesOf(0)
	// The chunk's progress log line, a plain Append, lands one round trip
	// after the chunk's report; the COMPLETED report has then started.
	stepUntil(t, clk, "the progress log line", func() bool {
		progress, ok := vol.Stat(f.Progress)
		log, _ := vol.Stat(f.Log)
		return ok && log.Gen > progress.Gen
	})
	before := gens(vol, f)
	d.NFS.InjectFault(nfs.FaultError)
	clocktest.Run(clk, time.Minute)
	d.NFS.Heal()
	clocktest.Run(clk, time.Minute)
	if got := gens(vol, f); got != before {
		t.Fatalf("Gens of status, log and exit %v after the outage, want %v: a report under FaultError landed", got, before)
	}
	env, ok := events.Decode(readOn(t, clk, vol, f.Status))
	if !ok || types.LearnerStatus(env.Status) != types.LearnerTraining {
		t.Fatalf("status = %+v (decoded %v), want TRAINING still", env, ok)
	}
}
