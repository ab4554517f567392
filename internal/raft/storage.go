package raft

import "sync"

// PersistentState is what a node must not lose across crashes (§5.1 of the
// Raft paper): its term, vote, and log — plus the compaction snapshot
// (§7): the application state through SnapIndex, which replaces all log
// entries at or below it.
type PersistentState struct {
	Term     uint64
	VotedFor int
	// Log holds entries with Index > SnapIndex.
	Log []Entry
	// SnapIndex/SnapTerm identify the last entry covered by Snapshot.
	SnapIndex uint64
	SnapTerm  uint64
	// Snapshot is the application state machine serialized at SnapIndex.
	Snapshot []byte
}

// MemoryStorage models a node's durable disk. It survives node crashes
// (the Node object is discarded; the storage is reused on restart) but not
// "disk loss", which Raft does not tolerate.
//
// Each write persists only what changed — the hard state, a log suffix,
// or a snapshot — the way a write-ahead log does; none re-writes the log.
// Snapshot slices are aliased, never copied: they are immutable once taken
// (Compact and snapshot installs replace the slice wholesale).
type MemoryStorage struct {
	mu    sync.Mutex
	state PersistentState
	saves int
}

// NewMemoryStorage returns an empty store for a fresh node.
func NewMemoryStorage() *MemoryStorage {
	return &MemoryStorage{state: PersistentState{VotedFor: -1}}
}

// SetHardState persists the node's term and vote.
func (m *MemoryStorage) SetHardState(term uint64, votedFor int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state.Term, m.state.VotedFor = term, votedFor
	m.saves++
}

// AppendEntries persists entries as the log from index from on: whatever
// the stored log held at or beyond from (a suffix that conflicted with
// the leader's) is discarded first. from must lie in
// (SnapIndex, last index + 1].
func (m *MemoryStorage) AppendEntries(from uint64, entries []Entry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state.Log = append(m.state.Log[:from-m.state.SnapIndex-1], entries...)
	m.saves++
}

// InstallSnapshot replaces the whole log with a snapshot received from
// the leader.
func (m *MemoryStorage) InstallSnapshot(index, term uint64, snapshot []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state.Log = nil
	m.state.SnapIndex, m.state.SnapTerm, m.state.Snapshot = index, term, snapshot
	m.saves++
}

// Compact replaces the log through index with the node's own snapshot,
// keeping the entries after it. index must lie in (SnapIndex, last index].
func (m *MemoryStorage) Compact(index, term uint64, snapshot []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// A fresh slice, so the compacted prefix's memory is released.
	m.state.Log = append([]Entry(nil), m.state.Log[index-m.state.SnapIndex:]...)
	m.state.SnapIndex, m.state.SnapTerm, m.state.Snapshot = index, term, snapshot
	m.saves++
}

// Load returns the last persisted state.
func (m *MemoryStorage) Load() PersistentState {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.state
	s.Log = append([]Entry(nil), s.Log...)
	return s
}

// Saves reports how many writes the storage has taken (the
// write-amplification metric of the ablation benches).
func (m *MemoryStorage) Saves() int { //lint:allow deadexport test-observation point: the storage tests count what a step writes
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saves
}
