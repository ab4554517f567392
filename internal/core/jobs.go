package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core/types"
	"repro/internal/mongo"
)

// ErrBadTransition indicates an illegal job state change was requested.
var ErrBadTransition = errors.New("core: illegal state transition")

// ErrJobNotFound indicates the job does not exist in MongoDB.
var ErrJobNotFound = errors.New("core: job not found")

// InsertJob durably records a new job. The paper's submission guarantee
// hinges on this write completing before the API acknowledges: "the API
// layer stores all the metadata in MongoDB before acknowledging the
// request. This ensures that submitted jobs are never lost."
func (d *Deps) InsertJob(rec types.JobRecord) error {
	doc, err := recordToDoc(rec)
	if err != nil {
		return err
	}
	var buf [256]byte
	hist, err := appendEvent(append(buf[:0], '['), types.Event{
		JobID: rec.ID, State: rec.State, Time: rec.SubmittedAt, Note: "submitted",
	})
	if err != nil {
		return fmt.Errorf("encoding history: %w", err)
	}
	doc["history"] = string(append(hist, ']'))
	if err := d.Jobs().InsertOne(doc); err != nil {
		return fmt.Errorf("inserting job %s: %w", rec.ID, err)
	}
	// The job's trace root opens at the durability point; every later
	// span (scheduler, guardian, learner) parents under trace.JobRoot.
	root := d.Trace.RootAt(rec.ID, rec.SubmittedAt)
	root.SetAttr("tenant", rec.Tenant)
	root.EventAt("state:"+string(rec.State), rec.SubmittedAt)
	return nil
}

// GetJob loads a job record. Its read pays whatever latency ctx owes
// (mongo.Collection.FindID).
func (d *Deps) GetJob(ctx context.Context, id string) (types.JobRecord, error) {
	doc, err := d.findJob(ctx, id)
	if err != nil {
		return types.JobRecord{}, err
	}
	return docToRecord(doc), nil
}

// findJob is the point read behind GetJob and JobHistory.
func (d *Deps) findJob(ctx context.Context, id string) (mongo.Document, error) {
	doc, err := d.Jobs().FindID(ctx, id)
	if errors.Is(err, mongo.ErrNotFound) {
		return nil, fmt.Errorf("job %s: %w", id, ErrJobNotFound)
	}
	return doc, err
}

// ListJobs returns all jobs for a tenant ("" = every tenant), in ID order.
func (d *Deps) ListJobs(tenant string) ([]types.JobRecord, error) {
	filter := mongo.Filter{}
	if tenant != "" {
		filter["tenant"] = tenant
	}
	docs, err := d.Jobs().Find(filter)
	if err != nil {
		return nil, err
	}
	out := make([]types.JobRecord, 0, len(docs))
	for _, doc := range docs {
		out = append(out, docToRecord(doc))
	}
	return out, nil
}

// JobHistory returns the job's record and its recorded state
// transitions, both from one read, which pays whatever latency ctx owes.
func (d *Deps) JobHistory(ctx context.Context, id string) (types.JobRecord, []types.Event, error) {
	doc, err := d.findJob(ctx, id)
	if err != nil {
		return types.JobRecord{}, nil, err
	}
	return docToRecord(doc), decodeHistory(doc), nil
}

// TransitionJob atomically moves the job to state `to` if the state
// machine allows it from the current state, appending a history event.
// Transitioning to the current state is a timestamped no-op refresh.
// Terminal states are never overwritten.
func (d *Deps) TransitionJob(id string, to types.JobState, reason string) (types.JobRecord, error) {
	now := d.Clock.Now()
	changed := false
	doc, err := d.Jobs().Mutate(mongo.Filter{"_id": id}, func(doc mongo.Document) (err error) {
		changed, err = applyTransition(doc, id, to, reason, now)
		return err
	})
	if err != nil {
		return types.JobRecord{}, notFound(id, err)
	}
	if changed {
		d.traceTransition(id, to, now)
	}
	return docToRecord(doc), nil
}

// BeginDeployAttempt counts a deployment attempt and, while the count is
// within max, moves the job to DEPLOYING with reason "attempt <n>", all in
// one write: a counted attempt that may deploy has its DEPLOYING event.
// Past max nothing else changes, and the caller fails the job. A
// transition the state machine refuses still counts the attempt — the
// Guardian that cannot deploy must exhaust its budget, not retry forever —
// and returns the refusal.
func (d *Deps) BeginDeployAttempt(id string, max int) (attempts int, err error) {
	now := d.Clock.Now()
	changed := false
	var refused error
	_, err = d.Jobs().Mutate(mongo.Filter{"_id": id}, func(doc mongo.Document) error {
		attempts = asInt(doc["deploy_attempts"]) + 1
		doc["deploy_attempts"] = attempts
		if attempts <= max {
			changed, refused = applyTransition(doc, id, types.StateDeploying, "attempt "+strconv.Itoa(attempts), now)
		}
		return nil
	})
	if err != nil {
		return 0, notFound(id, err)
	}
	if changed {
		d.traceTransition(id, types.StateDeploying, now)
	}
	return attempts, refused
}

// applyTransition is the document edit behind a state change: it moves
// doc to `to` if the state machine allows it, appending a history event,
// and reports whether the state changed. A transition to the current
// state only refreshes updated_at; a refused one leaves doc as it was.
func applyTransition(doc mongo.Document, id string, to types.JobState, reason string, now time.Time) (bool, error) {
	from := types.JobState(asString(doc["state"]))
	if from == to {
		doc["updated_at"] = now
		return false, nil
	}
	if !types.CanTransition(from, to) {
		return false, fmt.Errorf("%w: %s -> %s (job %s)", ErrBadTransition, from, to, id)
	}
	doc["state"] = string(to)
	doc["updated_at"] = now
	if reason != "" {
		doc["reason"] = reason
	}
	ev := types.Event{JobID: id, State: to, Time: now, Note: reason}
	if hist, err := appendHistory(asString(doc["history"]), ev); err == nil {
		doc["history"] = hist
	}
	return true, nil
}

// traceTransition records a committed state change on the job's trace
// root. Every real state change passes through applyTransition (API, LCM,
// Guardian), so the root's lifecycle events live here; a terminal state
// closes the root span.
func (d *Deps) traceTransition(id string, to types.JobState, now time.Time) {
	if d.Trace == nil {
		return
	}
	root := d.Trace.RootAt(id, now)
	root.EventAt("state:"+string(to), now)
	if to.Terminal() {
		root.SetAttr("terminal", string(to))
		root.EndAt(now)
	}
}

// notFound names a job-document write's mongo.ErrNotFound as
// ErrJobNotFound and returns any other error as it is.
func notFound(id string, err error) error {
	if errors.Is(err, mongo.ErrNotFound) {
		return fmt.Errorf("job %s: %w", id, ErrJobNotFound)
	}
	return err
}

// ResetDeployAttempts clears the deployment retry counter. The Guardian
// resets after a gang preemption: the redeploy is the scheduler's doing,
// not a deployment failure, so it must not count against the budget.
func (d *Deps) ResetDeployAttempts(id string) error {
	_, err := d.Jobs().Mutate(mongo.Filter{"_id": id}, func(doc mongo.Document) error {
		doc["deploy_attempts"] = 0
		return nil
	})
	return notFound(id, err)
}

// RecordFromDoc decodes a jobs-collection document into a JobRecord —
// the adapter for change-feed consumers (LCM, Guardian) that receive
// raw documents from Collection.Watch.
func RecordFromDoc(doc mongo.Document) types.JobRecord { return docToRecord(doc) }

func recordToDoc(rec types.JobRecord) (mongo.Document, error) {
	if rec.ID == "" {
		return nil, fmt.Errorf("core: job record without ID")
	}
	return mongo.Document{
		"_id":             rec.ID,
		"tenant":          rec.Tenant,
		"state":           string(rec.State),
		"manifest":        rec.Manifest,
		"deploy_attempts": rec.DeployAttempts,
		"submitted_at":    rec.SubmittedAt,
		"updated_at":      rec.UpdatedAt,
		"reason":          rec.Reason,
	}, nil
}

func docToRecord(doc mongo.Document) types.JobRecord {
	rec := types.JobRecord{
		ID:             asString(doc["_id"]),
		Tenant:         asString(doc["tenant"]),
		State:          types.JobState(asString(doc["state"])),
		Manifest:       asString(doc["manifest"]),
		DeployAttempts: asInt(doc["deploy_attempts"]),
		Reason:         asString(doc["reason"]),
	}
	if t, ok := doc["submitted_at"].(time.Time); ok {
		rec.SubmittedAt = t
	}
	if t, ok := doc["updated_at"].(time.Time); ok {
		rec.UpdatedAt = t
	}
	return rec
}

func decodeHistory(doc mongo.Document) []types.Event {
	return decodeHistoryRaw(asString(doc["history"]))
}

func decodeHistoryRaw(raw string) []types.Event {
	var hist []types.Event
	if raw != "" {
		_ = json.Unmarshal([]byte(raw), &hist)
	}
	return hist
}

func asString(v any) string {
	s, _ := v.(string)
	return s
}

func asInt(v any) int {
	switch n := v.(type) {
	case int:
		return n
	case int64:
		return int(n)
	case float64:
		return int(n)
	default:
		return 0
	}
}
