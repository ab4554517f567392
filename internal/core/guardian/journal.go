package guardian

import (
	"encoding/json"
	"strconv"

	"repro/internal/canonjson"
	"repro/internal/core"
	"repro/internal/core/types"
)

// journal is the Guardian's etcd-persisted deployment record.
type journal struct {
	// Deployed is set once every resource exists; a restarted Guardian
	// seeing Deployed resumes monitoring instead of rolling back.
	Deployed bool `json:"deployed"`
	// Steps lists the resources a deployment created, written once, with
	// Deployed (informational; rollback is defensive and deletes by name
	// regardless).
	Steps []string `json:"steps"`
	// MonitorRev is the first etcd revision the watch-mode monitor's
	// cursor moved to, journaled once; a restarted Guardian resumes its
	// watch after it and the store backfills every event since — none
	// missed, and each folded once more onto the view as of MonitorRev.
	MonitorRev uint64 `json:"monitor_rev,omitempty"`
	// Statuses is the aggregated per-learner view as of MonitorRev
	// (keyed by ordinal), so the resumed monitor starts from state
	// instead of an etcd re-list.
	Statuses map[int]types.StatusUpdate `json:"statuses,omitempty"`
	// Acks lists learners whose eviction acknowledgment has been folded
	// as of MonitorRev, so a Guardian restarted mid-grace can complete
	// the eviction without waiting out the deadline. The journal dies
	// with the deployment (handlePreemption deletes it), so acks never
	// leak into a later eviction.
	Acks map[int]bool `json:"acks,omitempty"`

	// enc is saveJournal's buffer, reused across the journal's saves.
	enc []byte
}

func loadJournal(d *core.Deps, key string) *journal {
	raw, found, err := d.Etcd.Get(key)
	if err != nil || !found {
		return nil
	}
	return decodeJournal(raw)
}

// decodeJournal parses a stored journal; a corrupt one reads as an empty
// journal, a partial deploy. Only a restarted Guardian reads one: a
// Guardian that deploys hands its monitor the journal it wrote.
func decodeJournal(raw string) *journal {
	var j journal
	if err := json.Unmarshal([]byte(raw), &j); err != nil {
		return &journal{}
	}
	return &j
}

func saveJournal(d *core.Deps, key string, j *journal) {
	if j.enc == nil {
		j.enc = make([]byte, 0, 512) // a journal of a few learners fits
	}
	raw, err := j.appendJSON(j.enc[:0])
	if err != nil {
		return
	}
	j.enc = raw
	_, _ = d.Etcd.Put(key, string(raw))
}

// appendJSON appends the journal's encoding to b: the bytes json.Marshal
// writes, without reflection. A journal json.Marshal would write
// differently from its plain form — a string with a byte it escapes, a
// time it refuses — is handed to json.Marshal itself.
func (j *journal) appendJSON(b []byte) ([]byte, error) {
	if !j.plain() {
		return canonjson.Marshal(b, j)
	}
	b = strconv.AppendBool(append(b, `{"deployed":`...), j.Deployed)
	if j.Steps == nil {
		b = append(b, `,"steps":null`...)
	} else {
		b = append(b, `,"steps":[`...)
		for i, s := range j.Steps {
			if i > 0 {
				b = append(b, ',')
			}
			b = canonjson.AppendString(b, s)
		}
		b = append(b, ']')
	}
	if j.MonitorRev != 0 {
		b = strconv.AppendUint(append(b, `,"monitor_rev":`...), j.MonitorRev, 10)
	}
	if len(j.Statuses) > 0 {
		b = canonjson.AppendObject(append(b, `,"statuses":`...), j.Statuses, appendStatus)
	}
	if len(j.Acks) > 0 {
		b = canonjson.AppendObject(append(b, `,"acks":`...), j.Acks, strconv.AppendBool)
	}
	return append(b, '}'), nil
}

// appendStatus appends a learner's status as json.Marshal writes it.
func appendStatus(b []byte, u types.StatusUpdate) []byte {
	b = strconv.AppendInt(append(b, `{"learner":`...), int64(u.Learner), 10)
	b = canonjson.AppendString(append(b, `,"status":`...), string(u.Status))
	b = canonjson.AppendTime(append(b, `,"time":`...), u.Time)
	return append(canonjson.AppendOmitEmpty(b, `,"detail":`, u.Detail), '}')
}

// plain reports whether appendJSON can write the journal itself: every
// string as json.Marshal writes it unescaped, every time one it accepts.
func (j *journal) plain() bool {
	for _, s := range j.Steps {
		if !canonjson.Plain(s) {
			return false
		}
	}
	for _, u := range j.Statuses {
		if !canonjson.Plain(string(u.Status)) || !canonjson.Plain(u.Detail) || !canonjson.Marshalable(u.Time) {
			return false
		}
	}
	return true
}
