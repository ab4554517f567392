// Package events defines the one event envelope the four core services
// (Learner, Helper, Guardian, LCM) exchange on the watch-driven control
// plane. A status transition is produced once — by the learner on the
// shared volume, mirrored by the helper controller into etcd, folded by
// the Guardian into the job record, observed by the LCM on the job
// change feed — and every hop speaks this schema: a typed kind, the
// job/learner identity, the payload status, and the metadata-store
// revision that committed it (the resume cursor).
//
// Decoding is tolerant of the pre-envelope wire formats (a bare learner
// status string on NFS, a raw StatusUpdate JSON document in etcd) so
// mixed-version components interoperate during a rolling upgrade.
//
// The wire form is json.Marshal's, written and read without reflection
// (codec.go): every hop of every status change encodes or decodes one.
package events

import (
	"time"

	"repro/internal/core/types"
)

// Kind types an envelope's payload.
type Kind string

// Event kinds.
const (
	// KindLearnerStatus carries one learner's execution status
	// (types.LearnerStatus in Status, ordinal in Learner).
	KindLearnerStatus Kind = "learner-status"
	// KindEvictionIntent announces a scheduler eviction (preemption or
	// node drain) with a grace deadline: the job's learners should
	// checkpoint now. Detail carries the reason, Deadline the cutoff.
	KindEvictionIntent Kind = "eviction-intent"
	// KindEvictionAck is a learner's response to an eviction intent: its
	// on-demand checkpoint is durable (Images is the checkpointed
	// progress) and the scheduler may take the capacity.
	KindEvictionAck Kind = "eviction-ack"
)

// Eviction envelope statuses (Status is mandatory on the wire; these
// type the two eviction payloads).
const (
	// StatusEvict is the Status of a KindEvictionIntent envelope.
	StatusEvict = "EVICT"
	// StatusCheckpointed is the Status of a KindEvictionAck envelope.
	StatusCheckpointed = "CHECKPOINTED"
)

// Envelope is one control-plane event.
type Envelope struct {
	Kind    Kind   `json:"kind"`
	JobID   string `json:"job_id,omitempty"`
	Learner int    `json:"learner"`
	// Status is the payload state: a types.LearnerStatus for
	// KindLearnerStatus.
	Status string `json:"status"`
	// Detail carries optional context (progress, failure reason).
	Detail string `json:"detail,omitempty"`
	// Time is the virtual timestamp of the transition; users depend on
	// these for profiling.
	Time time.Time `json:"time"`
	// Rev is the metadata-store revision that committed the event — the
	// cursor a consumer persists to resume its watch exactly. Zero until
	// the write is acknowledged (producers don't know their revision in
	// advance; watch consumers stamp it from the delivery).
	Rev uint64 `json:"rev,omitempty"`
	// Deadline is the eviction grace cutoff (KindEvictionIntent only):
	// a gang that has not acked by then is force-evicted.
	Deadline time.Time `json:"deadline,omitempty"`
	// Images is the checkpointed training progress (KindEvictionAck
	// only): the image count the job resumes from after the eviction.
	Images int64 `json:"images,omitempty"`
	// TraceID/SpanID carry the producer's trace context (the job's
	// trace and the span active when the event was produced) so
	// mirrored copies of the event — NFS status file, etcd key, job
	// record — stay attributable to one span tree. Empty on envelopes
	// from pre-tracing components; Decode tolerates their absence.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// WithTrace returns a copy of the envelope stamped with a span
// context. A zero/invalid context leaves the envelope unchanged.
func (e Envelope) WithTrace(traceID, spanID string) Envelope {
	if traceID != "" && spanID != "" {
		e.TraceID = traceID
		e.SpanID = spanID
	}
	return e
}

// LearnerStatus builds a learner-status envelope.
func LearnerStatus(jobID string, u types.StatusUpdate) Envelope {
	return Envelope{
		Kind:    KindLearnerStatus,
		JobID:   jobID,
		Learner: u.Learner,
		Status:  string(u.Status),
		Detail:  u.Detail,
		Time:    u.Time,
	}
}

// EvictionIntent builds an eviction-intent envelope: the scheduler
// wants the job's capacity back by deadline; reason is the kube
// eviction reason (preemption, drain).
func EvictionIntent(jobID, reason string, deadline, t time.Time) Envelope {
	return Envelope{
		Kind:     KindEvictionIntent,
		JobID:    jobID,
		Status:   StatusEvict,
		Detail:   reason,
		Deadline: deadline,
		Time:     t,
	}
}

// EvictionAck builds a learner's eviction-ack envelope: the on-demand
// checkpoint at images is durable in the results bucket.
func EvictionAck(jobID string, learner int, images int64, t time.Time) Envelope {
	return Envelope{
		Kind:    KindEvictionAck,
		JobID:   jobID,
		Learner: learner,
		Status:  StatusCheckpointed,
		Images:  images,
		Time:    t,
	}
}

// StatusUpdate converts a learner-status envelope back to the Guardian's
// aggregation record.
func (e Envelope) StatusUpdate() types.StatusUpdate {
	return types.StatusUpdate{
		Learner: e.Learner,
		Status:  types.LearnerStatus(e.Status),
		Time:    e.Time,
		Detail:  e.Detail,
	}
}
