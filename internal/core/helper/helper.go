// Package helper implements the four helper containers that DLaaS
// deploys alongside every training job's learners: load-data,
// log-collector, store-results, and the controller. The helper pod is
// isolated from the learner pods but shares the job's NFS volume, which
// is how the controller "monitors the execution and exit status of the
// learner processes" and how status updates survive crashes (NFS makes
// them resilient to controller crashes, etcd to Guardian crashes).
package helper

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/canonjson"
	"repro/internal/core"
	"repro/internal/core/learner"
	"repro/internal/core/manifest"
	"repro/internal/core/types"
	"repro/internal/events"
	"repro/internal/kube"
	"repro/internal/nfs"
	"repro/internal/objectstore"
	"repro/internal/trace"
)

// Poll cadences for the helper loops.
const (
	controllerPoll   = 500 * time.Millisecond
	logCollectorPoll = 5 * time.Second
)

// Journal is the controller's NFS crash-recovery record: the last status
// it published per learner, so a restarted controller resumes without
// gaps or duplicates ("K8S will restart the controller which can read
// current status and previous statuses from NFS").
const journalPath = "controller/journal"

// ControllerLogPath is the controller's own NFS log (publish failures
// and other diagnostics; shipped with learner logs by the collector).
const ControllerLogPath = "controller/controller.log"

// Markers written on the shared volume.
const (
	// DataReadyMarker is written by load-data after validating access
	// to the training dataset.
	DataReadyMarker = "helper/data-ready"
	// ResultsStoredMarker is written by store-results after the trained
	// model and logs are persisted.
	ResultsStoredMarker = "helper/results-stored"
)

// ResultModelKey is the results-bucket key where store-results persists
// the trained model for a completed job. Verdict oracles check this key
// to confirm a COMPLETED state is backed by an actual model object.
func ResultModelKey(jobID string) string {
	return fmt.Sprintf("models/%s/model.bin", jobID)
}

// Params configures the helper containers of one job.
type Params struct {
	Deps       *core.Deps
	JobID      string
	Manifest   *manifest.Manifest
	VolumeName string
}

// PodSpec assembles the helper pod: one pod, four cooperating containers,
// deployed by the Guardian as a K8s Deployment.
func PodSpec(p Params) kube.PodSpec {
	return kube.PodSpec{
		Labels: map[string]string{
			"app":    "dlaas-helper",
			"job":    p.JobID,
			"tenant": p.Manifest.TrainingData.AccessKey,
		},
		Tenant:        p.Manifest.TrainingData.AccessKey,
		RestartPolicy: kube.RestartAlways,
		Volumes:       []string{p.VolumeName},
		Containers: []kube.ContainerSpec{
			{
				Name:       "load-data",
				Image:      "dlaas/load-data",
				StartDelay: 2200 * time.Millisecond,
				Run:        func(ctx *kube.ContainerCtx) int { return runLoadData(ctx, p) },
			},
			{
				Name:       "controller",
				Image:      "dlaas/controller",
				StartDelay: 2 * time.Second,
				Run:        func(ctx *kube.ContainerCtx) int { return runController(ctx, p) },
			},
			{
				Name:       "log-collector",
				Image:      "dlaas/log-collector",
				StartDelay: 2 * time.Second,
				Run:        func(ctx *kube.ContainerCtx) int { return runLogCollector(ctx, p) },
			},
			{
				Name:       "store-results",
				Image:      "dlaas/store-results",
				StartDelay: 2 * time.Second,
				Run:        func(ctx *kube.ContainerCtx) int { return runStoreResults(ctx, p) },
			},
		},
	}
}

// runLoadData validates access to the training data and publishes the
// data-ready marker, then idles (helper containers are restart-always
// servers).
func runLoadData(ctx *kube.ContainerCtx, p Params) int {
	d := p.Deps
	vol, err := d.NFS.Volume(p.VolumeName)
	if err != nil {
		return learner.ExitVolumeError
	}
	m := p.Manifest
	creds := objectstore.Credentials{AccessKey: m.TrainingData.AccessKey, SecretKey: m.TrainingData.SecretKey}
	if _, err := d.ObjectStore.Stat(m.TrainingData.Bucket, m.TrainingData.Key, creds); err != nil {
		vol.Write(DataReadyMarker, []byte(fmt.Sprintf("error: %v", err)))
		<-ctx.Killed()
		return 0
	}
	vol.Write(DataReadyMarker, []byte("ok"))
	<-ctx.Killed()
	return 0
}

// controllerJournal is the serialized journal structure.
type controllerJournal struct {
	// Last published status per learner ordinal.
	Last map[string]types.LearnerStatus `json:"last"`
	// Acked lists learner ordinals whose eviction acknowledgment has
	// been mirrored into etcd, so restarts don't republish.
	Acked map[string]bool `json:"acked,omitempty"`
}

// decodeControllerJournal parses a stored journal. A corrupt one — the
// volume is shared with the learners' containers — reads as a fresh
// journal, never as the part json.Unmarshal filled in before it failed.
func decodeControllerJournal(raw []byte) (j controllerJournal) {
	if json.Unmarshal(raw, &j) != nil {
		return controllerJournal{}
	}
	return j
}

// appendJSON appends the journal's encoding to b: the bytes json.Marshal
// writes, without reflection unless a key or status needs json.Marshal's
// own hand.
func (j *controllerJournal) appendJSON(b []byte) ([]byte, error) {
	if j.Last == nil || !j.plain() {
		return canonjson.Marshal(b, j)
	}
	b = canonjson.AppendObject(append(b, `{"last":`...), j.Last, func(b []byte, v types.LearnerStatus) []byte {
		return canonjson.AppendString(b, string(v))
	})
	if len(j.Acked) > 0 {
		b = canonjson.AppendObject(append(b, `,"acked":`...), j.Acked, strconv.AppendBool)
	}
	return append(b, '}'), nil
}

// plain reports whether appendJSON can write the journal itself: every
// key and status as json.Marshal writes it unescaped.
func (j *controllerJournal) plain() bool {
	for k, v := range j.Last {
		if !canonjson.Plain(k) || !canonjson.Plain(string(v)) {
			return false
		}
	}
	for k := range j.Acked {
		if !canonjson.Plain(k) {
			return false
		}
	}
	return true
}

// learnerFiles is the attribute view of the two files a learner's status
// is derived from: the Gen of its status and exit files, 0 while absent.
type learnerFiles struct{ status, exit uint64 }

func statLearner(vol *nfs.Volume, f learner.Files) learnerFiles {
	st, _ := vol.Stat(f.Status)
	ex, _ := vol.Stat(f.ExitCode)
	return learnerFiles{status: st.Gen, exit: ex.Gen}
}

// mirrored is what the controller reads and writes for one learner,
// named once per incarnation: every pass touches it.
type mirrored struct {
	files             learner.Files
	ordinal           string // the learner's key in the journal
	statusKey, ackKey string // its etcd keys
}

// runController watches learner status and exit files on NFS and mirrors
// them into etcd as events.Envelope records, where the Guardian's watch
// aggregates them.
// Decoupling via etcd is the paper's mechanism for reliable status
// updates.
//
// The poll is change-driven: a pass Stats each learner's two files and
// reads them only when a Gen moved since the pair was last fully handled
// — published to etcd, or found equal to what the journal says was
// published. Anything short of that (a read refused by an NFS fault, an
// undecodable status, a failed etcd Put) leaves the pair unhandled, so
// the next poll reads it again; handled is in-memory only, so a
// restarted controller reads everything once and lets the journal
// suppress the duplicates.
//
// Passes run on the controllerPoll cadence, but only the ones that can
// learn something: a pass that handled all it saw waits for a write to
// one of the files it Stats and then for the next tick (SleepUntil), so
// the passes that would find every Gen where it was are not run, and the
// ones that are run at the instants they always did. A pass that left
// anything unhandled, a pending eviction ack included, sleeps the plain
// controllerPoll: a retry is not announced by a write.
func runController(ctx *kube.ContainerCtx, p Params) int {
	d := p.Deps
	vol, err := d.NFS.Volume(p.VolumeName)
	if err != nil {
		return learner.ExitVolumeError
	}

	// Crash recovery: resume from the journal so restarts don't republish.
	var journal controllerJournal
	if raw, err := vol.Read(journalPath); err == nil {
		journal = decodeControllerJournal(raw)
	}
	if journal.Last == nil {
		journal.Last = map[string]types.LearnerStatus{}
	}
	if journal.Acked == nil {
		journal.Acked = map[string]bool{}
	}
	var jbuf []byte // the journal's encoding, reused across saves
	saveJournal := func() {
		var err error
		if jbuf, err = journal.appendJSON(jbuf[:0]); err == nil {
			vol.Write(journalPath, jbuf)
		}
	}

	// A failed publish is retried on the next poll, but it must not be
	// silent: a wedged etcd would otherwise look like learners that never
	// progress. Each failure is counted, and logged once per learner.
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
	learners := make([]mirrored, p.Manifest.Learners)
	// Subscribed before the first Stat: a write landing mid-pass leaves a
	// token, and the next tick's pass reads it.
	watched := []string{learner.EvictRequestPath}
	for l := range learners {
		learners[l] = mirrored{
			files:     learner.FilesOf(l),
			ordinal:   strconv.Itoa(l),
			statusKey: types.LearnerStatusKey(p.JobID, l),
			ackKey:    types.LearnerEvictAckKey(p.JobID, l),
		}
		watched = append(watched, learners[l].files.Status, learners[l].files.ExitCode)
	}
	sub := vol.Subscribe(watched...)
	defer sub.Close()
	var buf []byte // the envelope of a Put; etcd keeps its own string
	for {
		retry := false // something this pass saw is still unhandled
		// Acks only exist after the Guardian posts the evict-request, so
		// one existence check keeps the per-learner ack reads off the
		// steady-state polling path entirely.
		evicting := vol.Exists(learner.EvictRequestPath)
		for l, lm := range learners {
			key := lm.ordinal
			// Mirror a pending eviction ack before the regular status:
			// the Guardian's early-complete (and with it the whole grace
			// protocol's win) hangs on this arriving quickly.
			if evicting && !journal.Acked[key] {
				if raw, err := vol.Read(lm.files.EvictAck); err == nil {
					if _, err := d.Etcd.Put(lm.ackKey, string(raw)); err != nil {
						noteDrop(l, "etcd-put-ack", err)
					} else {
						journal.Acked[key] = true
						saveJournal()
					}
				}
				if !journal.Acked[key] {
					retry = true
				}
			}
			// Stat before Read: a write landing in between is re-read on
			// the next poll rather than missed.
			seen := statLearner(vol, lm.files)
			if seen == handled[l] {
				continue
			}
			status, src, ok := currentLearnerStatus(vol, lm.files, seen)
			if !ok || status == "" {
				retry = true
				continue
			}
			if journal.Last[key] == status {
				handled[l] = seen
				continue
			}
			// The mirrored envelope is rebuilt (controller-stamped time and
			// progress detail), but the learner's trace context is copied
			// through — the etcd mirror stays on the job's span tree.
			env := events.LearnerStatus(p.JobID, types.StatusUpdate{
				Learner: l,
				Status:  status,
				Time:    d.Clock.Now(),
				Detail:  progressDetail(vol, lm.files.Progress),
			}).WithTrace(src.TraceID, src.SpanID)
			var err error
			if buf, err = env.Append(buf[:0]); err != nil {
				noteDrop(l, "marshal", err)
				retry = true
				continue
			}
			if _, err := d.Etcd.Put(lm.statusKey, string(buf)); err != nil {
				// etcd momentarily unavailable (leader election):
				// retry on the next poll rather than losing the update.
				noteDrop(l, "etcd-put", err)
				retry = true
				continue
			}
			dropLogged[l] = false
			journal.Last[key] = status
			saveJournal()
			handled[l] = seen
		}
		if !pollWait(ctx, controllerPoll, sub, retry) {
			return 0
		}
	}
}

// pollWait is the wait between two passes of a helper poll loop: to the
// next tick if the last pass left work to retry, otherwise to the first
// tick after a watched file changes. False means the process was killed.
func pollWait(ctx *kube.ContainerCtx, period time.Duration, sub *nfs.Subscription, retry bool) bool {
	if retry {
		return ctx.Sleep(period)
	}
	return ctx.SleepUntil(period, sub.C())
}

// currentLearnerStatus derives a learner's status from whichever of its
// two files seen says exist: the exit file wins (orderly termination),
// otherwise the status file (an events.Envelope). The source envelope is
// returned alongside so the caller can propagate its trace context;
// exit-derived statuses still carry the last status envelope's context.
// ok is false when a file that exists could not be read (an NFS fault) or
// its exit code not parsed: the answer is then incomplete and the caller
// must ask again.
func currentLearnerStatus(vol *nfs.Volume, f learner.Files, seen learnerFiles) (types.LearnerStatus, events.Envelope, bool) {
	var src events.Envelope
	ok := true
	if seen.status != 0 {
		raw, err := vol.Read(f.Status)
		if err != nil {
			ok = false
		} else if env, decoded := events.Decode(raw); decoded {
			src = env
		}
	}
	status := types.LearnerStatus(src.Status)
	if seen.exit != 0 {
		switch code, exited := vol.ReadExitCode(f.ExitCode); {
		case !exited:
			ok = false
		case code == 0:
			status = types.LearnerCompleted
		default:
			status = types.LearnerFailed
		}
	}
	return status, src, ok
}

func progressDetail(vol *nfs.Volume, path string) string {
	raw, err := vol.Read(path)
	if err != nil {
		return ""
	}
	return "images=" + string(raw)
}

// runLogCollector periodically uploads learner logs from NFS to the
// results bucket so logs survive any pod's demise ("reliable streaming of
// logs from the job, irrespective of the stage it is in, even if it
// crashes/fails"). Like the controller's, its passes keep their cadence
// and are run only once a file they Stat has been written, or to retry
// an upload that failed.
func runLogCollector(ctx *kube.ContainerCtx, p Params) int {
	d := p.Deps
	vol, err := d.NFS.Volume(p.VolumeName)
	if err != nil {
		return learner.ExitVolumeError
	}
	m := p.Manifest
	creds := objectstore.Credentials{AccessKey: m.Results.AccessKey, SecretKey: m.Results.SecretKey}
	shipped := make(map[string]uint64) // Gen of each file as last uploaded
	retry := false                     // a changed file did not reach the bucket this pass
	ship := func(path, key string) {
		fi, ok := vol.Stat(path)
		if !ok || fi.Gen == shipped[path] {
			return
		}
		if raw, err := vol.Read(path); err == nil {
			if err := d.ObjectStore.Put(m.Results.Bucket, key, raw, creds); err == nil {
				shipped[path] = fi.Gen
				return
			}
		}
		retry = true
	}
	// Each learner's two (file, bucket key) pairs, named once.
	var watched, keys []string
	for l := 0; l < m.Learners; l++ {
		watched = append(watched, learner.LogPath(l), learner.MetricsPath(l))
		keys = append(keys, learner.ResultLogKey(p.JobID, l), learner.ResultMetricsKey(p.JobID, l))
	}
	sub := vol.Subscribe(watched...)
	defer sub.Close()
	for {
		retry = false
		for i, path := range watched {
			ship(path, keys[i])
		}
		if !pollWait(ctx, logCollectorPoll, sub, retry) {
			return 0
		}
	}
}

// runStoreResults waits for every learner to finish successfully, then
// persists the trained model to the results bucket and publishes the
// stored marker that lets the Guardian declare the job COMPLETED.
func runStoreResults(ctx *kube.ContainerCtx, p Params) int {
	vol, err := p.Deps.NFS.Volume(p.VolumeName)
	if err != nil {
		return learner.ExitVolumeError
	}
	if awaitLearnersDone(ctx, vol, p.Manifest.Learners) {
		storeResults(p, vol)
	}
	<-ctx.Killed()
	return 0
}

// awaitLearnersDone polls the learners' exit files until every one
// records success. It reports false when there is nothing to store — a
// learner failed (the Guardian handles failure) or the process was
// killed. An exit file is read once it exists, and again only if its Gen
// moves; a pass is run on the first controllerPoll tick after one is
// written, or on the next to retry a read that failed.
func awaitLearnersDone(ctx *kube.ContainerCtx, vol *nfs.Volume, learners int) bool {
	type exit struct {
		gen  uint64
		code int
	}
	exits := make([]exit, learners)
	watched := make([]string, learners)
	for l := range watched {
		watched[l] = nfs.ExitCodePath(l)
	}
	sub := vol.Subscribe(watched...)
	defer sub.Close()
	for {
		done, failed, retry := 0, 0, false
		for l := 0; l < learners; l++ {
			fi, ok := vol.Stat(watched[l])
			if !ok {
				continue
			}
			if exits[l].gen != fi.Gen {
				code, ok := vol.ReadExitCode(watched[l])
				if !ok {
					retry = true
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
		if failed > 0 || done == learners {
			return failed == 0
		}
		if !pollWait(ctx, controllerPoll, sub, retry) {
			return false
		}
	}
}

// storeResults uploads the trained model and the final logs, then
// publishes the stored marker.
func storeResults(p Params, vol *nfs.Volume) {
	d, m := p.Deps, p.Manifest
	creds := objectstore.Credentials{AccessKey: m.Results.AccessKey, SecretKey: m.Results.SecretKey}
	// Upload the trained model (a full parameter snapshot).
	ssp := d.Trace.StartSpan(trace.JobRoot(p.JobID), "store-results")
	ssp.SetPhase(trace.PhaseStore)
	modelBytes := p.Manifest.ModelSpec().Params * 4
	d.DataLink.Transfer(modelBytes)
	_ = d.ObjectStore.PutSynthetic(m.Results.Bucket, ResultModelKey(p.JobID), modelBytes, creds)

	// Ship the final logs and metrics before declaring results stored:
	// the Guardian tears the volume down right after the marker appears,
	// and the log-collector's periodic pass may not run again — both
	// streams must be complete in the results bucket first ("reliable
	// streaming of logs ... irrespective of the stage it is in").
	for l := 0; l < m.Learners; l++ {
		if raw, err := vol.Read(learner.LogPath(l)); err == nil {
			logKey := learner.ResultLogKey(p.JobID, l)
			_ = d.ObjectStore.Put(m.Results.Bucket, logKey, raw, creds)
		}
		if raw, err := vol.Read(learner.MetricsPath(l)); err == nil {
			metKey := learner.ResultMetricsKey(p.JobID, l)
			_ = d.ObjectStore.Put(m.Results.Bucket, metKey, raw, creds)
		}
	}

	vol.Write(ResultsStoredMarker, []byte("ok"))
	ssp.End()
}
