// Package types defines the shared vocabulary of the DLaaS core
// services: job lifecycle states, learner statuses, job records stored in
// MongoDB, and the etcd key-space conventions used for reliable status
// coordination between the Helper controller and the Guardian.
package types

import (
	"fmt"
	"strconv"
	"time"
)

// JobState is the user-visible lifecycle state of a training job. Users
// rely on these transitions (with accurate timestamps) for profiling and
// debugging, so the platform must report them dependably.
type JobState string

// Job lifecycle states.
const (
	// StateQueued: metadata durably recorded, awaiting deployment.
	StateQueued JobState = "QUEUED"
	// StateDeploying: the Guardian is provisioning resources.
	StateDeploying JobState = "DEPLOYING"
	// StateProcessing: learners are training.
	StateProcessing JobState = "PROCESSING"
	// StateStoring: results/logs are being persisted to the object store.
	StateStoring JobState = "STORING"
	// StateCompleted: training finished and results are stored.
	StateCompleted JobState = "COMPLETED"
	// StateFailed: the job failed permanently (including deployment
	// retry exhaustion).
	StateFailed JobState = "FAILED"
	// StateHalted: the user terminated the job.
	StateHalted JobState = "HALTED"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateHalted
}

// validTransitions encodes the job state machine.
var validTransitions = map[JobState][]JobState{
	StateQueued:    {StateDeploying, StateFailed, StateHalted},
	StateDeploying: {StateProcessing, StateStoring, StateDeploying, StateFailed, StateHalted},
	// PROCESSING -> DEPLOYING covers a Guardian redeploy after recovery.
	StateProcessing: {StateStoring, StateDeploying, StateFailed, StateHalted},
	StateStoring:    {StateCompleted, StateFailed, StateHalted},
}

// CanTransition reports whether from -> to is a legal state change.
func CanTransition(from, to JobState) bool {
	for _, n := range validTransitions[from] {
		if n == to {
			return true
		}
	}
	return false
}

// LearnerStatus is the per-learner execution status recorded in etcd by
// the Helper's controller container.
type LearnerStatus string

// Learner statuses.
const (
	LearnerStarting    LearnerStatus = "STARTING"
	LearnerDownloading LearnerStatus = "DOWNLOADING"
	LearnerTraining    LearnerStatus = "TRAINING"
	LearnerCompleted   LearnerStatus = "COMPLETED"
	LearnerFailed      LearnerStatus = "FAILED"
)

// StatusUpdate is one timestamped learner status record.
type StatusUpdate struct {
	Learner int           `json:"learner"`
	Status  LearnerStatus `json:"status"`
	// Time is the virtual timestamp of the update; users depend on
	// these for profiling ("users use associated timestamps for job
	// profiling and debugging").
	Time time.Time `json:"time"`
	// Detail carries optional context (exit code, progress).
	Detail string `json:"detail,omitempty"`
}

// JobRecord is the MongoDB document for one training job.
type JobRecord struct {
	ID       string   `json:"id"`
	Tenant   string   `json:"tenant"`
	State    JobState `json:"state"`
	Manifest string   `json:"manifest"` // serialized manifest
	// DeployAttempts counts Guardian deployment tries.
	DeployAttempts int `json:"deploy_attempts"`
	// Times of state transitions (virtual clock).
	SubmittedAt time.Time `json:"submitted_at"`
	UpdatedAt   time.Time `json:"updated_at"`
	// Failure reason when State == FAILED.
	Reason string `json:"reason,omitempty"`
}

// Event is a timestamped job state transition exposed to users.
type Event struct {
	JobID string
	State JobState
	Time  time.Time
	Note  string
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("%s %s %s", e.Time.Format("15:04:05.000"), e.JobID, e.State)
}

// Etcd key-space conventions shared by the Guardian and controller.

// jobsRoot is the etcd prefix of every job's keys.
const jobsRoot = "/dlaas/jobs/"

// LearnerStatusKey is where the controller records learner l's current
// status for job id.
func LearnerStatusKey(id string, l int) string {
	return jobsRoot + id + "/learners/" + strconv.Itoa(l) + "/status"
}

// LearnerStatusPrefix covers all learner statuses of a job.
func LearnerStatusPrefix(id string) string {
	return jobsRoot + id + "/learners/"
}

// LearnerEvictAckKey is where the controller mirrors learner l's
// eviction acknowledgment (an events.KindEvictionAck envelope). It
// lives under LearnerStatusPrefix so the Guardian's one learner watch
// carries acks and statuses alike.
func LearnerEvictAckKey(id string, l int) string {
	return jobsRoot + id + "/learners/" + strconv.Itoa(l) + "/evict-ack"
}

// EvictionIntentKey is where the Guardian mirrors the scheduler's
// eviction intent (an events.KindEvictionIntent envelope) so the intent
// rides the same revision-ordered watch feeds as every other
// control-plane event.
func EvictionIntentKey(id string) string {
	return jobsRoot + id + "/evict/intent"
}

// GuardianJournalKey is where the Guardian journals its deployment
// progress so a restarted Guardian can roll back a partial deployment.
func GuardianJournalKey(id string) string {
	return jobsRoot + id + "/guardian/journal"
}

// JobPrefix covers every etcd key belonging to a job.
func JobPrefix(id string) string {
	return jobsRoot + id + "/"
}
