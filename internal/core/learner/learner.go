// Package learner implements the learner container process: the actual
// DL training workload inside a framework image. A learner streams
// training data from the object store, advances the (simulated) training
// computation, checkpoints periodically to the object store, appends logs
// and status to the shared NFS volume, and on restart resumes from the
// latest checkpoint — losing at most one checkpoint interval of work, as
// the paper promises.
package learner

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/core/manifest"
	"repro/internal/core/types"
	"repro/internal/events"
	"repro/internal/gpu"
	"repro/internal/kube"
	"repro/internal/netsim"
	"repro/internal/nfs"
	"repro/internal/objectstore"
	"repro/internal/trace"
	"repro/internal/trainsim"
)

// Exit codes written to the NFS exit-status file.
const (
	// ExitOK signals orderly completion.
	ExitOK = 0
	// ExitDataError signals inaccessible training data.
	ExitDataError = 3
	// ExitVolumeError signals a missing shared volume.
	ExitVolumeError = 4
	// ExitOOM signals the batch does not fit the GPU's device memory.
	ExitOOM = 5
	noExit  = -1 // a lifecycle report that writes no exit file
)

// maxChunks caps the chunks training between checkpoints is cut into:
// the grain of the progress and metrics, the wedge check and onChunk's
// eviction checkpoint. Kills need none: ContainerCtx.Sleep returns on one.
const maxChunks = 64

// WedgePath is the NFS file whose presence wedges the job's learners: a
// fault-injection hook for the alive-but-stuck failure mode. A wedged
// learner keeps its process alive and its status TRAINING but makes no
// progress — invisible to exit-code and crash detection, caught only by
// the Guardian's progress-liveness deadline.
const WedgePath = "chaos/wedge"

// nfsStallThreshold is how much a training chunk must overrun its sleep
// before the excess is attributed to a shared-volume stall (NFS
// operations block in virtual time during a flap).
const nfsStallThreshold = 2 * time.Second

// Params configures one learner container.
type Params struct {
	Deps     *core.Deps
	JobID    string
	Ordinal  int
	Manifest *manifest.Manifest
	// VolumeName is the job's shared NFS volume.
	VolumeName string
	// GPU is the resolved GPU spec for this job.
	GPU gpu.Spec
}

// StatusPath is the NFS file where learner l publishes its status.
func StatusPath(l int) string { return "learner-" + strconv.Itoa(l) + "/status" }

// LogPath is the NFS file where learner l appends training logs.
func LogPath(l int) string { return "learner-" + strconv.Itoa(l) + "/training.log" }

// ProgressPath is the NFS file where learner l records images processed.
func ProgressPath(l int) string { return "learner-" + strconv.Itoa(l) + "/progress" }

// MetricsPath is the NFS file where learner l appends its training
// progress graph (JSON lines of trainsim.MetricPoint). The paper notes
// users profile jobs with these graphs and that the graph of a job that
// was restarted differs slightly from one that never failed — the
// rollback to the last checkpoint is visible in the series.
func MetricsPath(l int) string { return "learner-" + strconv.Itoa(l) + "/metrics.jsonl" }

// EvictRequestPath is the NFS file the Guardian writes (an
// events.KindEvictionIntent envelope) to relay the scheduler's eviction
// intent to the job's learners: the checkpoint-now trigger of the
// graceful-eviction protocol.
const EvictRequestPath = "evict/request"

// EvictAckPath is the NFS file where learner l acknowledges an eviction
// intent (an events.KindEvictionAck envelope) once its on-demand
// checkpoint is durable; the helper controller mirrors it into etcd for
// the Guardian.
func EvictAckPath(l int) string { return "learner-" + strconv.Itoa(l) + "/evict-ack" }

// Files are the paths of learner l's files on the job volume. The loops
// that touch them every pass (the learner's, the helper's) build them
// once.
type Files struct {
	Status, Log, Progress, Metrics, EvictAck, ExitCode string
}

// FilesOf returns learner l's paths.
func FilesOf(l int) Files {
	return Files{
		Status:   StatusPath(l),
		Log:      LogPath(l),
		Progress: ProgressPath(l),
		Metrics:  MetricsPath(l),
		EvictAck: EvictAckPath(l),
		ExitCode: nfs.ExitCodePath(l),
	}
}

// checkpointPrefix is the results-bucket key prefix for checkpoints.
func checkpointPrefix(jobID string) string {
	return "checkpoints/" + jobID + "/ckpt-"
}

// ResultLogKey is the results-bucket key where learner l's training log
// is shipped. Every shipper (log-collector, store-results, Guardian)
// and reader (API logs endpoint, redeploy restore) addresses logs
// through this one helper, so the layout cannot drift between them.
func ResultLogKey(jobID string, l int) string {
	return "logs/" + jobID + "/learner-" + strconv.Itoa(l) + ".log"
}

// ResultMetricsKey is the results-bucket key for learner l's training
// progress graph.
func ResultMetricsKey(jobID string, l int) string {
	return "metrics/" + jobID + "/learner-" + strconv.Itoa(l) + ".jsonl"
}

// ContainerSpec builds the kube container for a learner. Heavy framework
// images and the object-store binding dominate its restart latency
// ("Learners take longest to restart because binding to cloud object
// store and persistent NFS volumes takes longer, and Caffe/Tensorflow
// pods take longer to restart").
func ContainerSpec(p Params) kube.ContainerSpec {
	return kube.ContainerSpec{
		Name:       "learner",
		Image:      string(p.Manifest.Framework) + ":dlaas",
		StartDelay: 7 * time.Second,
		Run:        func(ctx *kube.ContainerCtx) int { return run(ctx, p) },
	}
}

// TrainingConfig builds the trainsim configuration for the whole job
// (all learners train synchronously, so step timing is global).
func TrainingConfig(m *manifest.Manifest, g gpu.Spec) trainsim.Config {
	interconnect := g.HostLink
	if m.Learners > 1 {
		// Cross-learner synchronization leaves the box: it rides the
		// datacenter network.
		interconnect = netsim.Ethernet1G
	}
	return trainsim.Config{
		Model:        m.ModelSpec(),
		Framework:    trainsim.Framework(m.Framework),
		GPU:          g,
		NumGPUs:      m.TotalGPUs(),
		BatchPerGPU:  m.BatchPerGPU,
		Sync:         trainsim.SyncAllReduce,
		Interconnect: interconnect,
		Overheads:    trainsim.DLaaS(),
	}
}

func run(ctx *kube.ContainerCtx, p Params) int {
	d := p.Deps
	vol, err := d.NFS.Volume(p.VolumeName)
	if err != nil {
		return ExitVolumeError
	}
	// Local stamps (status records, log lines, metric points, eviction
	// acks) read the node's clock — under injected clock skew these drift
	// with the node, exactly as a real learner's would. Central job
	// history stays on the core services' clock, which is why it must
	// remain monotone even when learner-side stamps are skewed.
	nodeClk := ctx.Clock()

	// One attempt span per incarnation, parented directly under the job
	// root (trace.JobRoot is derivable, so re-parenting after a crash
	// needs no propagated state). Span timestamps read the central clock:
	// critical-path math must stay consistent under injected node skew.
	tr := d.Trace
	attempt := tr.StartSpan(trace.JobRoot(p.JobID), "learner-"+strconv.Itoa(p.Ordinal))
	attempt.SetAttr("node", ctx.NodeName())
	attempt.SetAttr("incarnation", strconv.Itoa(ctx.Restart()))
	defer attempt.End()
	attemptTraceID, attemptSpanID := "", ""
	if sc := attempt.Context(); sc.Valid() {
		attemptTraceID, attemptSpanID = string(sc.TraceID), sc.SpanID.String()
	}

	// The paths are built once per incarnation, and what is written to
	// them is built in one reused buffer, sized for a lifecycle report: the
	// volume copies what it keeps.
	files := FilesOf(p.Ordinal)
	buf := make([]byte, 0, 512)
	appendStatus := func(b []byte, s types.LearnerStatus) []byte {
		// The status file carries the shared control-plane envelope: the
		// helper controller mirrors it into etcd verbatim-compatible form
		// and the Guardian folds it into the job state — one schema from
		// learner to LCM. The attempt's trace context rides along so the
		// span tree covers the status path end to end.
		env := events.LearnerStatus(p.JobID, types.StatusUpdate{
			Learner: p.Ordinal, Status: s, Time: nodeClk.Now(),
		}).WithTrace(attemptTraceID, attemptSpanID)
		if out, err := env.Append(b); err == nil {
			return out
		}
		return append(b, s...) // legacy bare-string form, still decodable
	}
	logPrefix := " learner-" + strconv.Itoa(p.Ordinal) + ": "
	appendLog := func(b []byte, format string, args ...any) []byte {
		b = nodeClk.Now().AppendFormat(b, "15:04:05")
		b = append(b, logPrefix...)
		return append(fmt.Appendf(b, format, args...), '\n')
	}
	logf := func(format string, args ...any) {
		buf = appendLog(buf[:0], format, args...)
		vol.Append(files.Log, buf)
	}
	// report is a lifecycle report: the status, a log line and, unless
	// exit is noExit, the exit code, landed as one Compound one NFS round
	// trip after it starts. No kill interrupts the round trip.
	var calls [3]nfs.Call
	report := func(s types.LearnerStatus, exit int, format string, args ...any) {
		buf = appendStatus(buf[:0], s)
		cut := len(buf)
		buf = appendLog(buf, format, args...)
		n, end := 2, len(buf)
		if exit != noExit {
			buf, n = strconv.AppendInt(buf, int64(exit), 10), 3
			calls[2] = nfs.Call{Path: files.ExitCode, Data: buf[end:]}
		}
		calls[0] = nfs.Call{Path: files.Status, Data: buf[:cut]}
		calls[1] = nfs.Call{Path: files.Log, Data: buf[cut:end], Append: true}
		d.Clock.Sleep(netsim.NFSLink.Latency)
		vol.Compound(calls[:n]...)
	}

	report(types.LearnerStarting, noExit, "starting (incarnation %d) on node %s", ctx.Restart(), ctx.NodeName())

	m := p.Manifest

	// MPI-style rendezvous: distributed learners wait until every peer
	// has registered on the shared volume before proceeding, so a
	// partially placed gang never trains alone ("setting up network
	// (MPI) interconnections" is part of atomic provisioning).
	if m.Learners > 1 {
		rsp := tr.StartSpan(attempt.Context(), "rendezvous")
		rsp.SetPhase(trace.PhaseRendezvous)
		peers := make([]string, m.Learners)
		for l := range peers {
			peers[l] = StatusPath(l)
		}
		for {
			ready := 0
			for _, path := range peers {
				if vol.Exists(path) {
					ready++
				}
			}
			if ready == m.Learners {
				break
			}
			if !ctx.Sleep(time.Second) {
				rsp.End()
				return exitKilled()
			}
		}
		rsp.End()
		logf("rendezvous complete: %d learners connected", m.Learners)
	}
	dataCreds := objectstore.Credentials{AccessKey: m.TrainingData.AccessKey, SecretKey: m.TrainingData.SecretKey}
	resCreds := objectstore.Credentials{AccessKey: m.Results.AccessKey, SecretKey: m.Results.SecretKey}

	// Verify training data access before burning GPU time.
	dataObj, err := d.ObjectStore.Stat(m.TrainingData.Bucket, m.TrainingData.Key, dataCreds)
	if err != nil {
		report(types.LearnerFailed, ExitDataError, "training data inaccessible: %v", err)
		return ExitDataError
	}

	cfg := TrainingConfig(m, p.GPU)

	// Out-of-memory check: the framework aborts at startup when the
	// batch's activations don't fit the device. This is an orderly
	// failure — the exit file tells the controller, which tells the
	// Guardian, which fails the job with a diagnosable reason.
	if !cfg.FitsMemory() {
		report(types.LearnerFailed, ExitOOM, "OOM: %s batch %d needs %d MB, %s has %d MB",
			m.Model, m.BatchPerGPU, cfg.MemoryRequiredBytes()>>20, p.GPU.Name, int64(p.GPU.MemGB*1000))
		return ExitOOM
	}

	totalImages := int64(m.Epochs) * m.DatasetImages

	// Resume from the latest checkpoint, if any. The checkpoint download
	// is a real transfer — part of why learner recovery is the slowest
	// in Fig. 4. The span is recorded retroactively (once the listing
	// says there is something to resume) and tagged as recovery cost.
	resumeStart := d.Clock.Now()
	imagesDone := latestCheckpoint(d, m, resCreds, p.JobID)
	if imagesDone > 0 {
		d.DataLink.Transfer(cfg.CheckpointBytes())
		sp := tr.StartSpanAt(attempt.Context(), "resume-checkpoint", resumeStart)
		sp.SetPhase(trace.PhaseRecovery)
		sp.SetAttr("images", strconv.FormatInt(imagesDone, 10))
		sp.EndAt(d.Clock.Now())
		logf("resumed from checkpoint at %d/%d images", imagesDone, totalImages)
	}

	// Warm the input pipeline: stream the first shard of the epoch.
	dsp := tr.StartSpan(attempt.Context(), "download")
	dsp.SetPhase(trace.PhaseDownload)
	buf = appendStatus(buf[:0], types.LearnerDownloading)
	vol.Write(files.Status, buf)
	shard := dataObj.Size / int64(m.Learners)
	if shard > 0 {
		warm := shard / 64
		if warm > 256<<20 {
			warm = 256 << 20
		}
		d.DataLink.Transfer(warm)
	}
	dsp.End()

	report(types.LearnerTraining, noExit, "training %s/%s on %d GPU(s) x %d learner(s), batch %d",
		m.Model, m.Framework, m.GPUsPerLearner, m.Learners, m.BatchPerGPU)

	stepImages := int64(cfg.NumGPUs * m.BatchPerGPU)
	if stepImages == 0 {
		stepImages = int64(m.BatchPerGPU)
	}
	stepTime := cfg.StepTime()

	ckptImages := m.CheckpointImages(stepTime, stepImages)

	// Eviction-grace handler, polled at every training chunk: when the
	// Guardian relays an eviction intent onto the shared volume, stall
	// to serialize the model off the device, upload an on-demand
	// checkpoint, and ack — so the impending kill loses at most one
	// chunk of work instead of a full checkpoint interval. Acked once
	// per incarnation: the intent ends in this pod's eviction.
	graceAcked := false
	graceCheckpoint := func(imagesDone int64) bool {
		if graceAcked || !vol.Exists(EvictRequestPath) {
			return true
		}
		graceAcked = true
		esp := tr.StartSpan(attempt.Context(), "evict-grace")
		esp.SetPhase(trace.PhaseEvict)
		defer esp.End()
		if !ctx.Sleep(cfg.CheckpointStallTime()) {
			return false
		}
		writeCheckpoint(d, m, resCreds, cfg, p.JobID, imagesDone)
		env := events.EvictionAck(p.JobID, p.Ordinal, imagesDone, nodeClk.Now())
		if raw, err := env.Encode(); err == nil {
			vol.Write(files.EvictAck, raw)
		}
		logf("on-demand checkpoint at %d/%d images (eviction grace)", imagesDone, totalImages)
		return true
	}

	for imagesDone < totalImages {
		// Never past the end, and never by a sum that could overflow.
		target := imagesDone + min(ckptImages, totalImages-imagesDone)
		tsp := tr.StartSpan(attempt.Context(), "train")
		tsp.SetPhase(trace.PhaseTrain)
		tsp.SetAttr("target", strconv.FormatInt(target, 10))
		ok := trainSpan(ctx, d, vol, files, cfg, stepTime, stepImages, &imagesDone, target, tsp.Context(), graceCheckpoint, logf)
		tsp.End()
		if !ok {
			// Killed mid-training: this incarnation ends as a crash;
			// the recovered learner resumes from the last checkpoint.
			return exitKilled()
		}
		if imagesDone < totalImages && m.CheckpointInterval > 0 {
			csp := tr.StartSpan(attempt.Context(), "checkpoint")
			csp.SetPhase(trace.PhaseCheckpoint)
			csp.SetAttr("images", strconv.FormatInt(imagesDone, 10))
			writeCheckpoint(d, m, resCreds, cfg, p.JobID, imagesDone)
			csp.End()
			logf("checkpoint at %d/%d images (%d bytes)", imagesDone, totalImages, cfg.CheckpointBytes())
		}
	}

	report(types.LearnerCompleted, ExitOK, "training complete: %d images", imagesDone)
	attempt.End()

	// Hold the container open: completion is signaled through the exit
	// file; the Guardian tears the StatefulSet down after storing
	// results.
	<-ctx.Killed()
	return ExitOK
}

// trainSpan advances training to target images in chunks, publishing
// progress and answering eviction intents (onChunk) after each. It
// reports false when killed. A chunk is one sleep of its compute time and
// the round trip its progress write and metric point share (a Compound):
// a kill in the compute drops the chunk, one in the round trip lands it
// first. Each chunk is timed on the central clock against that sleep; the
// excess — NFS calls blocking through a volume flap — is recorded
// retroactively as an "nfs-stall" child of parent, so the critical path
// separates stalled wall time from productive training.
func trainSpan(ctx *kube.ContainerCtx, d *core.Deps, vol *nfs.Volume, files Files,
	cfg trainsim.Config, stepTime time.Duration, stepImages int64,
	imagesDone *int64, target int64, parent trace.SpanContext,
	onChunk func(int64) bool, logf func(string, ...any)) bool {

	chunkSteps := max((target-*imagesDone+stepImages-1)/stepImages/maxChunks, 1)
	curve := trainsim.CurveFor(cfg.Model, 42)
	var buf []byte // the chunk's report; the volume copies it
	rtt := netsim.NFSLink.Latency
	for *imagesDone < target {
		// Wedge hook: the marker file turns this learner into the
		// alive-but-stuck failure mode — process up, status TRAINING,
		// zero progress. The open-ended span makes the hang visible on
		// the trace; only the liveness deadline can catch it.
		if vol.Exists(WedgePath) {
			wsp := d.Trace.StartSpan(parent, "wedged")
			wsp.SetPhase(trace.PhaseStall)
			wsp.SetAttr("images", strconv.FormatInt(*imagesDone, 10))
			logf("wedged at %d images: process alive, no progress", *imagesDone)
			<-ctx.Killed()
			return false
		}
		n := min(chunkSteps, (target-*imagesDone+stepImages-1)/stepImages)
		chunk := time.Duration(n)*stepTime + rtt
		chunkStart := d.Clock.Now()
		alive := ctx.Sleep(chunk)
		left := chunk - d.Clock.Since(chunkStart) // 0 unless killed
		if left > rtt {
			return false // killed during the compute
		}
		d.Clock.Sleep(left) // no kill interrupts a round trip
		*imagesDone = min(*imagesDone+n*stepImages, target)
		buf = strconv.AppendInt(buf[:0], *imagesDone, 10)
		cut := len(buf) // the progress; the metric line follows it
		point := trainsim.MetricPoint{
			ClusterSeconds: float64(ctx.Clock().Now().UnixNano()) / 1e9,
			Images:         *imagesDone,
			Loss:           curve.LossAt(*imagesDone),
			Restarts:       ctx.Restart(),
		}
		report := append(make([]nfs.Call, 0, 2), nfs.Call{Path: files.Progress})
		if line, err := point.AppendJSON(buf); err == nil {
			buf = append(line, '\n')
			report = append(report, nfs.Call{Path: files.Metrics, Data: buf[cut:], Append: true})
		}
		report[0].Data = buf[:cut]
		vol.Compound(report...)
		if excess := d.Clock.Since(chunkStart) - chunk; excess > nfsStallThreshold {
			sp := d.Trace.StartSpanAt(parent, "nfs-stall", chunkStart.Add(chunk))
			sp.SetPhase(trace.PhaseStall)
			sp.EndAt(chunkStart.Add(chunk + excess))
		}
		if !alive || !onChunk(*imagesDone) {
			return false
		}
	}
	logf("progress: %d images (%.1f img/s aggregate)", *imagesDone, cfg.Throughput())
	return true
}

// writeCheckpoint persists the model state to the results bucket,
// charging the transfer to the shared data network. Only learner state
// for the job as a whole is stored (one checkpoint stream), keyed by
// progress so recovery can find the newest.
func writeCheckpoint(d *core.Deps, m *manifest.Manifest, creds objectstore.Credentials,
	cfg trainsim.Config, jobID string, imagesDone int64) {
	d.DataLink.Transfer(cfg.CheckpointBytes())
	key := fmt.Sprintf("%s%012d", checkpointPrefix(jobID), imagesDone)
	_ = d.ObjectStore.PutSynthetic(m.Results.Bucket, key, cfg.CheckpointBytes(), creds)
}

// latestCheckpoint returns the highest checkpointed image count for the
// job, or 0 when none exists.
func latestCheckpoint(d *core.Deps, m *manifest.Manifest, creds objectstore.Credentials, jobID string) int64 {
	keys, err := d.ObjectStore.List(m.Results.Bucket, creds)
	if err != nil {
		return 0
	}
	prefix := checkpointPrefix(jobID)
	var best int64
	sort.Strings(keys)
	for _, k := range keys {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimLeft(strings.TrimPrefix(k, prefix), "0"), 10, 64)
		if err == nil && n > best {
			best = n
		}
	}
	return best
}

func exitKilled() int { return 137 }
