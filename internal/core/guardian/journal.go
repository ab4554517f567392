package guardian

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/core/types"
	"repro/internal/events"
)

// journal is the Guardian's etcd-persisted deployment record.
type journal struct {
	// Deployed is set once every resource exists; a restarted Guardian
	// seeing Deployed resumes monitoring instead of rolling back.
	Deployed bool `json:"deployed"`
	// Steps records which resources have been created (informational;
	// rollback is defensive and deletes by name regardless).
	Steps []string `json:"steps"`
	// MonitorRev is the last etcd revision whose learner-status events
	// the watch-mode monitor folded into the job state; a restarted
	// Guardian resumes its watch exactly after it — no missed and no
	// re-processed transitions.
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
// journal, a partial deploy.
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
		raw, err := json.Marshal(j)
		if err != nil {
			return b, err
		}
		return append(b, raw...), nil
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
			b = events.AppendString(b, s)
		}
		b = append(b, ']')
	}
	if j.MonitorRev != 0 {
		b = strconv.AppendUint(append(b, `,"monitor_rev":`...), j.MonitorRev, 10)
	}
	var keys [16]int
	if len(j.Statuses) > 0 {
		b = append(b, `,"statuses":{`...)
		for i, l := range jsonKeyOrder(keys[:0], j.Statuses) {
			u := j.Statuses[l]
			b = appendKey(b, i, l)
			b = strconv.AppendInt(append(b, `{"learner":`...), int64(u.Learner), 10)
			b = events.AppendString(append(b, `,"status":`...), string(u.Status))
			b = events.AppendTime(append(b, `,"time":`...), u.Time)
			if u.Detail != "" {
				b = events.AppendString(append(b, `,"detail":`...), u.Detail)
			}
			b = append(b, '}')
		}
		b = append(b, '}')
	}
	if len(j.Acks) > 0 {
		b = append(b, `,"acks":{`...)
		for i, l := range jsonKeyOrder(keys[:0], j.Acks) {
			b = strconv.AppendBool(appendKey(b, i, l), j.Acks[l])
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// plain reports whether appendJSON can write the journal itself: every
// string as json.Marshal writes it unescaped, every time one it accepts.
func (j *journal) plain() bool {
	for _, s := range j.Steps {
		if !events.Plain(s) {
			return false
		}
	}
	for _, u := range j.Statuses {
		if !events.Plain(string(u.Status)) || !events.Plain(u.Detail) || !events.Marshalable(u.Time) {
			return false
		}
	}
	return true
}

// appendKey appends the i-th member's int key of a JSON object, quoted as
// json.Marshal quotes it.
func appendKey(b []byte, i, key int) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	b = strconv.AppendInt(append(b, '"'), int64(key), 10)
	return append(b, `":`...)
}

// jsonKeyOrder appends m's keys to keys in the order json.Marshal writes
// them: by their decimal strings, so 10 comes before 2.
func jsonKeyOrder[V any](keys []int, m map[int]V) []int {
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b int) int {
		var x, y [20]byte
		return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
	})
	return keys
}
