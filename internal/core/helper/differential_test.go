package helper

// Differential tests of the gated poll loops: runController and
// runStoreResults against copies of the loops they replaced, which wake
// on every tick of the cadence. Both sides get the same seeded schedule
// of what happens around them — learner writes, an NFS soft-mount fault,
// an etcd outage, an eviction — on a manual clock stepped only while
// every goroutine is blocked (clocktest), so a timeline is a function of
// the schedule alone. Their observable timelines must be identical, and
// the gated loop must reach it in fewer instants.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
	"repro/internal/core"
	"repro/internal/core/learner"
	"repro/internal/core/manifest"
	"repro/internal/core/types"
	"repro/internal/events"
	"repro/internal/kube"
	"repro/internal/nfs"
	"repro/internal/objectstore"
)

// referenceController is runController as it was before its wait was
// gated: the same pass, then Sleep(controllerPoll), every time.
func referenceController(ctx *kube.ContainerCtx, p Params) int {
	d := p.Deps
	vol, err := d.NFS.Volume(p.VolumeName)
	if err != nil {
		return learner.ExitVolumeError
	}
	journal := controllerJournal{Last: map[string]types.LearnerStatus{}}
	if raw, err := vol.Read(journalPath); err == nil {
		_ = json.Unmarshal(raw, &journal)
	}
	if journal.Last == nil {
		journal.Last = map[string]types.LearnerStatus{}
	}
	if journal.Acked == nil {
		journal.Acked = map[string]bool{}
	}
	saveJournal := func() {
		if jraw, err := json.Marshal(journal); err == nil {
			vol.Write(journalPath, jraw)
		}
	}
	dropLogged := make(map[int]bool)
	noteDrop := func(l int, stage string, err error) {
		if d.Metrics != nil {
			d.Metrics.Inc("controller_status_drops", stage)
		}
		if !dropLogged[l] {
			dropLogged[l] = true
			line := fmt.Sprintf("%s controller: dropping status update for learner %d (%s: %v); will retry\n",
				d.Clock.Now().Format("15:04:05"), l, stage, err)
			vol.Append(ControllerLogPath, []byte(line))
		}
	}
	handled := make([]learnerFiles, p.Manifest.Learners)
	for {
		evicting := vol.Exists(learner.EvictRequestPath)
		for l := 0; l < p.Manifest.Learners; l++ {
			key := fmt.Sprintf("%d", l)
			if evicting && !journal.Acked[key] {
				if raw, err := vol.Read(learner.EvictAckPath(l)); err == nil {
					if _, err := d.Etcd.Put(types.LearnerEvictAckKey(p.JobID, l), string(raw)); err != nil {
						noteDrop(l, "etcd-put-ack", err)
					} else {
						journal.Acked[key] = true
						saveJournal()
					}
				}
			}
			files := learner.FilesOf(l)
			seen := statLearner(vol, files)
			if seen == handled[l] {
				continue
			}
			status, src, ok := currentLearnerStatus(vol, files, seen)
			if !ok || status == "" {
				continue
			}
			if journal.Last[key] == status {
				handled[l] = seen
				continue
			}
			env := events.LearnerStatus(p.JobID, types.StatusUpdate{
				Learner: l,
				Status:  status,
				Time:    d.Clock.Now(),
				Detail:  src.detail,
			}).WithTrace(src.env.TraceID, src.env.SpanID)
			raw, err := env.Encode()
			if err != nil {
				noteDrop(l, "marshal", err)
				continue
			}
			if _, err := d.Etcd.Put(types.LearnerStatusKey(p.JobID, l), string(raw)); err != nil {
				noteDrop(l, "etcd-put", err)
				continue
			}
			dropLogged[l] = false
			journal.Last[key] = status
			saveJournal()
			handled[l] = seen
		}
		if !ctx.Sleep(controllerPoll) {
			return 0
		}
	}
}

// referenceStoreResults is runStoreResults with the wait it had before:
// Stat every exit file every controllerPoll.
func referenceStoreResults(ctx *kube.ContainerCtx, p Params) int {
	vol, err := p.Deps.NFS.Volume(p.VolumeName)
	if err != nil {
		return learner.ExitVolumeError
	}
	type exit struct {
		gen  uint64
		code int
	}
	exits := make([]exit, p.Manifest.Learners)
	for {
		done, failed := 0, 0
		for l := 0; l < p.Manifest.Learners; l++ {
			fi, ok := vol.Stat(nfs.ExitCodePath(l))
			if !ok {
				continue
			}
			if exits[l].gen != fi.Gen {
				code, ok := vol.ReadExitCode(nfs.ExitCodePath(l))
				if !ok {
					continue
				}
				exits[l] = exit{gen: fi.Gen, code: code}
			}
			if exits[l].code == 0 {
				done++
			} else {
				failed++
			}
		}
		if failed > 0 {
			break
		}
		if done == p.Manifest.Learners {
			storeResults(p, vol)
			break
		}
		if !ctx.Sleep(controllerPoll) {
			return 0
		}
	}
	<-ctx.Killed()
	return 0
}

// grain is the unit of the schedules' instants, which the NFS round trip
// (300 µs), the cadences and jitter-free kube timing are multiples of.
const grain = 100 * time.Microsecond

// rig is one helper container under test on a manual clock, with a
// single-replica etcd and a jitter-free cluster.
type rig struct {
	clk   *clock.Sim
	d     *core.Deps
	vol   *nfs.Volume
	epoch time.Time
}

func newRig(t *testing.T, m *manifest.Manifest, container string, run func(*kube.ContainerCtx, Params) int) *rig {
	t.Helper()
	clk := clock.NewManual()
	timing := kube.DefaultTiming()
	timing.JitterFraction = 0
	d := newTestDepsOn(t, clk, kube.Config{Clock: clk, Timing: timing}, 1)
	vol, err := d.NFS.Provision("vol-j")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Deps: d, JobID: "j", Manifest: m, VolumeName: "vol-j"}
	if _, err := d.Kube.CreatePod(kube.PodSpec{
		Name:          "helper-j",
		RestartPolicy: kube.RestartAlways,
		Containers: []kube.ContainerSpec{{
			Name:       container,
			StartDelay: 2 * time.Second,
			Run:        func(ctx *kube.ContainerCtx) int { return run(ctx, p) },
		}},
	}); err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, d: d, vol: vol, epoch: clk.Now()}
}

// step is one thing the world does to the container under test, at a
// time counted from the start of the run.
type step struct {
	at time.Duration
	do func(*rig)
}

// play runs the schedule on its own goroutine, the way the learners and
// the Guardian act beside the helper, while the caller drives the clock.
func (r *rig) play(schedule []step) {
	go func() {
		for _, s := range schedule {
			r.clk.Sleep(s.at - r.clk.Since(r.epoch))
			s.do(r)
		}
	}()
}

// at draws an instant in [from, from+span) that is a whole number of
// grains. (A write that lands on the very instant of a poll tick is the
// one case the two loops may differ in: the every-tick loop sees it then
// or a tick later, as its goroutine and the writer's happen to run; the
// gated loop always a tick later. No seed used here draws one.)
func at(rng *rand.Rand, from, span time.Duration) time.Duration {
	return from + time.Duration(rng.Int63n(int64(span/grain)))*grain
}

func writeStatus(l int, s types.LearnerStatus) func(*rig) {
	return func(r *rig) { writeLearnerStatus(r.vol, l, s, r.clk.Now()) }
}

// controllerSchedule is two learners' lives as the controller sees them,
// with every retry path of its pass exercised: a status it Stats but
// cannot read (soft-mount fault), an undecodable status, a publish etcd
// refuses (outage), and an eviction whose acks trail the request.
func controllerSchedule(seed int64) []step {
	rng := rand.New(rand.NewSource(seed))
	s := time.Second
	return []step{
		{at(rng, 1*s, 2*s), writeStatus(0, types.LearnerStarting)},
		{at(rng, 3*s, 2*s), writeStatus(1, types.LearnerStarting)},
		{at(rng, 5*s, 2*s), writeStatus(0, types.LearnerDownloading)},
		// Lands, then cannot be read for a few seconds.
		{at(rng, 8*s, s/2), writeStatus(1, types.LearnerDownloading)},
		{8*s + s/2, func(r *rig) { r.d.NFS.InjectFault(nfs.FaultError) }},
		{at(rng, 11*s, s), func(r *rig) { r.d.NFS.Heal() }},
		// Undecodable until rewritten.
		{at(rng, 13*s, s), func(r *rig) { r.vol.Write(learner.StatusPath(0), nil) }},
		{at(rng, 15*s, s), writeStatus(0, types.LearnerTraining)},
		// An outage longer than a Put waits (5 s): the publish fails,
		// and is made again only because the controller comes back to it.
		{at(rng, 17*s, s/2), func(r *rig) { r.d.Etcd.CrashNode(0) }},
		{at(rng, 18*s, s), writeStatus(1, types.LearnerTraining)},
		{at(rng, 25*s, s), func(r *rig) { r.d.Etcd.RestartNode(0) }},
		{at(rng, 28*s, s), func(r *rig) { r.vol.Write(learner.EvictRequestPath, []byte("intent")) }},
		{at(rng, 29*s, s), func(r *rig) { r.vol.Write(learner.EvictAckPath(1), []byte("ack-1")) }},
		{at(rng, 31*s, s), func(r *rig) { r.vol.Write(learner.EvictAckPath(0), []byte("ack-0")) }},
		{at(rng, 33*s, s), func(r *rig) { r.vol.Write(nfs.ExitCodePath(0), []byte("0")) }},
		{at(rng, 35*s, s), func(r *rig) { r.vol.Write(nfs.ExitCodePath(1), []byte("3")) }},
	}
}

// put is one committed write to the job's etcd keys, as a watcher saw it.
type put struct {
	At         time.Duration
	Key, Value string
}

// controllerTimeline runs the controller under the schedule and returns
// every etcd write it made with the instant it committed, and the number
// of instants the run took.
func controllerTimeline(t *testing.T, seed int64, run func(*kube.ContainerCtx, Params) int) ([]put, uint64) {
	t.Helper()
	r := newRig(t, helperManifest(2), "controller", run)
	feed, cancel := r.d.Etcd.Watch(types.JobPrefix("j"))
	defer cancel()
	var mu sync.Mutex
	var puts []put
	go func() {
		for ev := range feed {
			mu.Lock()
			puts = append(puts, put{r.clk.Since(r.epoch), ev.Key, ev.Value})
			mu.Unlock()
		}
	}()
	r.play(controllerSchedule(seed))
	clocktest.Run(r.clk, 40*time.Second)
	mu.Lock()
	defer mu.Unlock()
	return puts, r.clk.Instants()
}

// seeds are the schedules a differential test runs: one under -short.
func seeds() []int64 {
	if testing.Short() {
		return []int64{1}
	}
	return []int64{1, 2}
}

func TestControllerGatedWaitKeepsTimeline(t *testing.T) {
	for _, seed := range seeds() {
		want, plain := controllerTimeline(t, seed, referenceController)
		got, gated := controllerTimeline(t, seed, runController)
		// 2 learners × (STARTING, DOWNLOADING, TRAINING, exit) + 2 acks.
		if len(want) != 10 {
			t.Fatalf("seed %d: the reference loop made %d etcd writes, want 10: %+v", seed, len(want), want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: etcd writes differ\n gated:     %+v\n reference: %+v", seed, got, want)
		}
		// 37 s of 500 ms polls is 74 instants; the retry paths, which
		// both loops take every tick, cover some 18 s of them.
		if gated+25 > plain {
			t.Errorf("seed %d: gated loop took %d instants, the every-tick loop %d: want at least 25 fewer", seed, gated, plain)
		}
	}
}

// storeResultsTimeline returns when the results-stored marker was
// written, and the number of instants the run took.
func storeResultsTimeline(t *testing.T, seed int64, run func(*kube.ContainerCtx, Params) int) (time.Duration, uint64) {
	t.Helper()
	r := newRig(t, helperManifest(2), "store-results", run)
	creds := objectstore.Credentials{AccessKey: "ak", SecretKey: "sk"}
	if err := r.d.ObjectStore.CreateBucket("results", creds); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	s := time.Second
	r.play([]step{
		{at(rng, 4*s, 4*s), func(r *rig) { r.vol.Write(nfs.ExitCodePath(1), []byte("0")) }},
		// An exit file that exists but cannot be read yet: first by a
		// fault, then because it does not parse.
		{at(rng, 10*s, s/4), func(r *rig) { r.vol.Write(nfs.ExitCodePath(0), []byte("?")) }},
		{10*s + s/4, func(r *rig) { r.d.NFS.InjectFault(nfs.FaultError) }},
		{at(rng, 12*s, s), func(r *rig) { r.d.NFS.Heal() }},
		{at(rng, 15*s, 2*s), func(r *rig) { r.vol.Write(nfs.ExitCodePath(0), []byte("0")) }},
	})
	marker := r.vol.Subscribe(ResultsStoredMarker)
	defer marker.Close()
	written := make(chan time.Duration, 1)
	go func() {
		<-marker.C()
		written <- r.clk.Since(r.epoch)
	}()
	clocktest.Run(r.clk, 30*time.Second)
	if !r.vol.Exists(ResultsStoredMarker) {
		t.Fatalf("seed %d: results-stored marker never written", seed)
	}
	// Run's quiescence check orders nothing; the channel does.
	return <-written, r.clk.Instants()
}

func TestStoreResultsGatedWaitKeepsTimeline(t *testing.T) {
	for _, seed := range seeds() {
		want, plain := storeResultsTimeline(t, seed, referenceStoreResults)
		got, gated := storeResultsTimeline(t, seed, runStoreResults)
		if got != want {
			t.Errorf("seed %d: marker written at %v, the every-tick loop wrote it at %v", seed, got, want)
		}
		// Of some 28 ticks before the last exit file, about half are
		// retries of the unreadable one, which both loops take.
		if gated+10 > plain {
			t.Errorf("seed %d: gated loop took %d instants, the every-tick loop %d: want at least 10 fewer", seed, gated, plain)
		}
	}
}
