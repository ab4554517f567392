package core

import (
	"encoding/json"
	"errors"
	"fmt"
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

// GetJob loads a job record.
func (d *Deps) GetJob(id string) (types.JobRecord, error) {
	doc, err := d.Jobs().FindOne(mongo.Filter{"_id": id})
	if err != nil {
		if errors.Is(err, mongo.ErrNotFound) {
			return types.JobRecord{}, fmt.Errorf("job %s: %w", id, ErrJobNotFound)
		}
		return types.JobRecord{}, err
	}
	return docToRecord(doc), nil
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

// JobHistory returns the job's recorded state transitions.
func (d *Deps) JobHistory(id string) ([]types.Event, error) {
	doc, err := d.Jobs().FindOne(mongo.Filter{"_id": id})
	if err != nil {
		if errors.Is(err, mongo.ErrNotFound) {
			return nil, fmt.Errorf("job %s: %w", id, ErrJobNotFound)
		}
		return nil, err
	}
	return decodeHistory(doc), nil
}

// TransitionJob atomically moves the job to state `to` if the state
// machine allows it from the current state, appending a history event.
// Transitioning to the current state is a timestamped no-op refresh.
// Terminal states are never overwritten.
func (d *Deps) TransitionJob(id string, to types.JobState, reason string) (types.JobRecord, error) {
	now := d.Clock.Now()
	changed := false
	doc, err := d.Jobs().Mutate(mongo.Filter{"_id": id}, func(doc mongo.Document) error {
		from := types.JobState(asString(doc["state"]))
		if from == to {
			doc["updated_at"] = now
			return nil
		}
		if !types.CanTransition(from, to) {
			return fmt.Errorf("%w: %s -> %s (job %s)", ErrBadTransition, from, to, id)
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
		changed = true
		return nil
	})
	if err != nil {
		if errors.Is(err, mongo.ErrNotFound) {
			return types.JobRecord{}, fmt.Errorf("job %s: %w", id, ErrJobNotFound)
		}
		return types.JobRecord{}, err
	}
	// This is the single choke point every real state change passes
	// through (API, LCM, Guardian), so the trace root's lifecycle
	// events live here; a terminal state closes the root span.
	if changed && d.Trace != nil {
		root := d.Trace.RootAt(id, now)
		root.EventAt("state:"+string(to), now)
		if to.Terminal() {
			root.SetAttr("terminal", string(to))
			root.EndAt(now)
		}
	}
	return docToRecord(doc), nil
}

// IncrementDeployAttempts bumps and returns the deployment retry counter.
func (d *Deps) IncrementDeployAttempts(id string) (int, error) {
	var attempts int
	_, err := d.Jobs().Mutate(mongo.Filter{"_id": id}, func(doc mongo.Document) error {
		attempts = asInt(doc["deploy_attempts"]) + 1
		doc["deploy_attempts"] = attempts
		return nil
	})
	if err != nil {
		if errors.Is(err, mongo.ErrNotFound) {
			return 0, fmt.Errorf("job %s: %w", id, ErrJobNotFound)
		}
		return 0, err
	}
	return attempts, nil
}

// ResetDeployAttempts clears the deployment retry counter. The Guardian
// resets after a gang preemption: the redeploy is the scheduler's doing,
// not a deployment failure, so it must not count against the budget.
func (d *Deps) ResetDeployAttempts(id string) error {
	_, err := d.Jobs().Mutate(mongo.Filter{"_id": id}, func(doc mongo.Document) error {
		doc["deploy_attempts"] = 0
		return nil
	})
	if err != nil {
		if errors.Is(err, mongo.ErrNotFound) {
			return fmt.Errorf("job %s: %w", id, ErrJobNotFound)
		}
		return err
	}
	return nil
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
