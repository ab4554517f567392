// Package jobmonitor is the dependability campaign's verdict oracle: an
// independent observer that watches one training job through the
// platform's own event feeds and, once the job settles, renders a
// machine-checkable verdict. In the spirit of verification-condition
// generation, it reduces "the platform handled these faults dependably"
// to a conjunction of per-job checks:
//
//   - the terminal state is legal for the faults injected;
//   - the observed state transitions walk the job state machine, with
//     monotone central timestamps (even under injected node clock skew);
//   - no acknowledged work is lost: every checkpoint a learner logged
//     (periodic or eviction-grace on-demand) is reflected in any later
//     resume point, and logs survive to the results bucket;
//   - the job is not stuck past a liveness deadline;
//   - learner/etcd/mongo metadata are mutually consistent at the end —
//     coordination keys cleaned up, workloads torn down, the volume
//     released, and a COMPLETED job backed by a stored model.
package jobmonitor

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/core/guardian"
	"repro/internal/core/helper"
	"repro/internal/core/learner"
	"repro/internal/core/types"
	"repro/internal/etcd"
	"repro/internal/kube"
	"repro/internal/mongo"
	"repro/internal/objectstore"
	"repro/internal/trace"
)

// Config hands the oracle read access to the platform substrates. The
// oracle only observes: it never mutates platform state.
type Config struct {
	Clock   clock.Clock
	Jobs    *mongo.Collection
	Etcd    *etcd.Store
	Cluster *kube.Cluster
	Store   *objectstore.Store
	// Trace, when set, enriches the verdict with the job's critical-path
	// phase attribution and recovery cost. The timing never feeds the
	// pass/fail checks or the campaign fingerprint.
	Trace *trace.Recorder
}

// JobRef identifies the job under observation and how to reach its
// artifacts.
type JobRef struct {
	ID            string
	Learners      int
	ResultsBucket string
	Creds         objectstore.Credentials
}

// Expect describes the legal outcome for the faults a scenario injects.
type Expect struct {
	// Terminal lists the states the job may legally end in.
	Terminal []types.JobState
	// Deadline is the liveness budget (virtual time from Watch): the
	// job must reach a terminal state within it.
	Deadline time.Duration
}

// Check is one named pass/fail condition of a verdict.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// Verdict is the oracle's judgment of one job. CriticalPath and
// RecoveryCost are diagnostic context from the job's trace — what the
// faults actually cost on the critical path, in virtual time — and are
// deliberately excluded from fingerprinting (timing is environment-
// sensitive in ways the pass/fail checks are not).
type Verdict struct {
	JobID        string            `json:"job_id"`
	Terminal     types.JobState    `json:"terminal,omitempty"`
	Checks       []Check           `json:"checks"`
	Pass         bool              `json:"pass"`
	CriticalPath []trace.PhaseCost `json:"critical_path,omitempty"`
	RecoveryCost time.Duration     `json:"recovery_cost,omitempty"`
}

// observation is one state change seen on the feed.
type observation struct {
	state types.JobState
	at    time.Time
}

// Monitor watches one job. Create with Watch, harvest with Verdict.
type Monitor struct {
	cfg    Config
	ref    JobRef
	expect Expect

	cancel func()
	done   chan struct{}

	mu          sync.Mutex
	observed    []observation
	terminal    bool
	deadlineHit bool
}

// metadataGrace is how long (virtual) the oracle waits after the
// terminal state for asynchronous teardown — etcd cleanup, workload
// deletion, volume release — before calling the metadata inconsistent.
const metadataGrace = 3 * time.Minute

// Watch starts observing the job through the metadata change feed (the
// PR 3 event-driven control plane: revision-ordered, no polling) plus a
// liveness timer on the virtual clock. Call after the job is submitted.
func Watch(cfg Config, ref JobRef, expect Expect) (*Monitor, error) {
	m := &Monitor{cfg: cfg, ref: ref, expect: expect, done: make(chan struct{})}
	feed, cancel, err := cfg.Jobs.WatchKey(ref.ID)
	if err != nil {
		return nil, fmt.Errorf("jobmonitor: %w", err)
	}
	m.cancel = cancel

	// Seed with the current record: the feed only carries changes
	// committed after the watch opened.
	if doc, err := cfg.Jobs.FindID(context.Background(), ref.ID); err == nil {
		rec := core.RecordFromDoc(doc)
		m.record(rec)
	}

	go m.pump(feed)
	return m, nil
}

func (m *Monitor) pump(feed <-chan mongo.ChangeEvent) {
	deadline := m.cfg.Clock.NewTimer(m.expect.Deadline)
	defer deadline.Stop()
	defer m.cancel()
	for {
		m.mu.Lock()
		terminal := m.terminal
		m.mu.Unlock()
		if terminal {
			close(m.done)
			return
		}
		select {
		case ev, ok := <-feed:
			if !ok {
				close(m.done)
				return
			}
			m.record(core.RecordFromDoc(ev.Doc))
		case <-deadline.C():
			m.mu.Lock()
			m.deadlineHit = true
			m.mu.Unlock()
			close(m.done)
			return
		}
	}
}

// record folds one job record into the observed transition history.
func (m *Monitor) record(rec types.JobRecord) {
	if rec.State == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.observed)
	if n > 0 && m.observed[n-1].state == rec.State {
		return // same-state metadata update (e.g. retry counter)
	}
	m.observed = append(m.observed, observation{state: rec.State, at: rec.UpdatedAt})
	if rec.State.Terminal() {
		m.terminal = true
	}
}

// Verdict blocks until the job reaches a terminal state or the liveness
// deadline passes, then runs the final consistency checks and renders
// the verdict. Standing faults should be healed before calling it: the
// oracle reads through the same substrates the platform uses.
func (m *Monitor) Verdict() Verdict {
	<-m.done

	m.mu.Lock()
	observed := make([]observation, len(m.observed))
	copy(observed, m.observed)
	deadlineHit := m.deadlineHit
	m.mu.Unlock()

	var final types.JobState
	if n := len(observed); n > 0 {
		final = observed[n-1].state
	}

	v := Verdict{JobID: m.ref.ID, Terminal: final}
	add := func(name string, pass bool, detail string) {
		if pass {
			detail = ""
		}
		v.Checks = append(v.Checks, Check{Name: name, Pass: pass, Detail: detail})
	}

	// 1. Liveness: terminal before the deadline.
	add("liveness", !deadlineHit && final.Terminal(),
		fmt.Sprintf("job not terminal within %v (last state %s)", m.expect.Deadline, final))

	// 2. Terminal state legal for the injected faults.
	legal := false
	for _, s := range m.expect.Terminal {
		if final == s {
			legal = true
		}
	}
	add("terminal-state", legal,
		fmt.Sprintf("terminal %s not in expected %v", final, m.expect.Terminal))

	// 3. Observed transitions walk the state machine with monotone
	// central timestamps.
	pass, detail := checkTransitions(observed)
	add("history-transitions", pass, detail)

	// 4 + 5. Work/log preservation and metadata consistency only mean
	// something once the job settled.
	if final.Terminal() {
		pass, detail = m.checkWorkPreserved(final)
		add("no-lost-acked-work", pass, detail)
		pass, detail = m.checkMetadataConsistent(final)
		add("metadata-consistent", pass, detail)
	}

	v.Pass = true
	for _, c := range v.Checks {
		v.Pass = v.Pass && c.Pass
	}

	// Attach the traced cost of whatever happened to this job: which
	// phases its wall time went to, and how much of the critical path
	// was recovery/stall/evict work caused by the injected faults.
	if t := m.cfg.Trace.Tree(m.ref.ID); t != nil {
		att := trace.CriticalPath(t)
		v.CriticalPath = att.Phases
		v.RecoveryCost = att.Recovery
	}
	return v
}

// checkTransitions validates the observed state sequence against the
// job state machine and demands non-decreasing central timestamps —
// the guarantee that survives injected node clock skew, because job
// history is stamped by the core services' clock, not the learners'.
func checkTransitions(observed []observation) (bool, string) {
	for k := 1; k < len(observed); k++ {
		prev, cur := observed[k-1], observed[k]
		if !types.CanTransition(prev.state, cur.state) {
			return false, fmt.Sprintf("illegal transition %s -> %s", prev.state, cur.state)
		}
		if cur.at.Before(prev.at) {
			return false, fmt.Sprintf("timestamps regress: %s@%v then %s@%v",
				prev.state, prev.at, cur.state, cur.at)
		}
	}
	return true, ""
}

var (
	resumedRe = regexp.MustCompile(`resumed from checkpoint at (\d+)/`)
	ckptRe    = regexp.MustCompile(`checkpoint at (\d+)/`)
)

// checkWorkPreserved audits each learner's shipped log (PR 4's
// lost-images accounting): a resume point may never fall below a
// checkpoint the same learner had already logged as durable — loss of
// acknowledged images — and the log itself must have survived to the
// results bucket, complete through "training complete" for a COMPLETED
// job.
func (m *Monitor) checkWorkPreserved(final types.JobState) (bool, string) {
	for l := 0; l < m.ref.Learners; l++ {
		obj, err := m.cfg.Store.Get(m.ref.ResultsBucket, learner.ResultLogKey(m.ref.ID, l), m.ref.Creds)
		if err != nil {
			return false, fmt.Sprintf("learner %d log lost: %v", l, err)
		}
		text := string(obj.Data)
		if strings.TrimSpace(text) == "" {
			return false, fmt.Sprintf("learner %d log empty", l)
		}
		var maxCkpt int64
		for _, line := range strings.Split(text, "\n") {
			if mm := resumedRe.FindStringSubmatch(line); mm != nil {
				resumed, _ := strconv.ParseInt(mm[1], 10, 64)
				if resumed < maxCkpt {
					return false, fmt.Sprintf("learner %d lost %d acked images: resumed at %d after checkpoint %d",
						l, maxCkpt-resumed, resumed, maxCkpt)
				}
				continue
			}
			if mm := ckptRe.FindStringSubmatch(line); mm != nil {
				if n, _ := strconv.ParseInt(mm[1], 10, 64); n > maxCkpt {
					maxCkpt = n
				}
			}
		}
		if final == types.StateCompleted && !strings.Contains(text, "training complete") {
			return false, fmt.Sprintf("learner %d log missing completion marker", l)
		}
	}
	return true, ""
}

// checkMetadataConsistent verifies the end-state agreement between
// etcd, Kubernetes, NFS, MongoDB and the object store, polling through
// a grace window because teardown is asynchronous.
func (m *Monitor) checkMetadataConsistent(final types.JobState) (bool, string) {
	deadline := m.cfg.Clock.Now().Add(metadataGrace)
	for {
		detail := m.metadataProblem(final)
		if detail == "" {
			return true, ""
		}
		if !m.cfg.Clock.Now().Before(deadline) {
			return false, detail
		}
		m.cfg.Clock.Sleep(time.Second)
	}
}

// metadataProblem returns the first inconsistency found, or "".
func (m *Monitor) metadataProblem(final types.JobState) string {
	id := m.ref.ID

	// etcd: every coordination key must be cleaned up after terminal.
	if kvs, err := m.cfg.Etcd.Range(types.JobPrefix(id)); err != nil {
		return fmt.Sprintf("etcd unreadable: %v", err)
	} else if len(kvs) > 0 {
		return fmt.Sprintf("%d stale etcd keys under %s (first %s)", len(kvs), types.JobPrefix(id), kvs[0].Key)
	}

	// Kubernetes: the job's workloads must be gone.
	if m.cfg.Cluster.StatefulSetByName(guardian.LearnerSetName(id)) != nil {
		return "learner StatefulSet still present"
	}
	if m.cfg.Cluster.DeploymentByName(guardian.HelperName(id)) != nil {
		return "helper deployment still present"
	}
	if pods := m.cfg.Cluster.Pods(map[string]string{"job": id}); len(pods) > 0 {
		return fmt.Sprintf("%d job pods still present (first %s)", len(pods), pods[0].Name())
	}

	// NFS: the shared volume must be released.
	if srv := m.cfg.Cluster.NFS(); srv != nil {
		if _, err := srv.Volume(guardian.VolumeName(id)); err == nil {
			return "NFS volume still provisioned"
		}
	}

	// MongoDB: the durable record must agree with the feed.
	doc, err := m.cfg.Jobs.FindID(context.Background(), id)
	if err != nil {
		return fmt.Sprintf("job record unreadable: %v", err)
	}
	if rec := core.RecordFromDoc(doc); rec.State != final {
		return fmt.Sprintf("mongo state %s disagrees with observed terminal %s", rec.State, final)
	}

	// Object store: a COMPLETED job is backed by a stored model.
	if final == types.StateCompleted {
		if _, err := m.cfg.Store.Stat(m.ref.ResultsBucket, helper.ResultModelKey(id), m.ref.Creds); err != nil {
			return fmt.Sprintf("model object missing: %v", err)
		}
	}
	return ""
}
