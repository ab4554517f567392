package raft

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// Config holds tunables shared by the nodes of one cluster.
type Config struct {
	// Clock drives all timeouts.
	Clock clock.Clock
	// ElectionTimeoutMin/Max bound the randomized follower timeout.
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	// HeartbeatInterval is the leader's AppendEntries cadence while
	// anything is being asked of the log or a follower is behind or
	// silent. Once the log is settled and every follower has agreed to
	// an election timeout idleFactor times longer, rounds are
	// idleFactor × HeartbeatInterval apart until the next demand.
	HeartbeatInterval time.Duration
	// Seed makes election randomization reproducible.
	Seed int64

	// MaxInflightEntries bounds how many log entries a leader may have
	// sent to one follower beyond its acknowledged match index before
	// further sends carry no entries (the AppendEntries pipeline
	// window).
	MaxInflightEntries int
	// MaxInflightBytes bounds the same window by summed command bytes.
	MaxInflightBytes int
	// MaxAppendEntries caps how many entries ride in one AppendEntries
	// message (0 = no per-message cap).
	MaxAppendEntries int
	// SnapChunkSize is the installSnapshot payload size: a lagging
	// follower catches up through a stream of offset-addressed chunks
	// instead of one monolithic message. <= 0 ships the snapshot whole.
	SnapChunkSize int

	// MaxClockDrift bounds how far apart any two node clocks are assumed
	// to read. Every heartbeat round a quorum confirms extends a
	// check-quorum lease of ElectionTimeoutMin - MaxClockDrift from the
	// round's start, during which ReadIndex answers from the commit index
	// with zero messages; a drift of ElectionTimeoutMin or more leaves no
	// lease, and every read pays a round. It is the lease-read safety
	// margin, enforced three ways: the lease duration is shortened by it,
	// an append ack whose echoed clock reading deviates from the leader's
	// by more than it kills the lease (and blocks re-arming off that
	// follower), and a lease whose local clock has stepped behind the
	// grant instant is refused. A negative value removes ALL three
	// defenses — UNSAFE: a clock step can then leave a deposed leader
	// serving stale lease reads. It exists only so tests can demonstrate
	// the bound is load-bearing.
	MaxClockDrift time.Duration
}

// DefaultConfig mirrors etcd's stock timing (scaled for the simulation)
// with a pipeline window and chunked snapshot streaming.
func DefaultConfig(clk clock.Clock) Config {
	return Config{
		Clock:              clk,
		ElectionTimeoutMin: 150 * time.Millisecond,
		ElectionTimeoutMax: 300 * time.Millisecond,
		HeartbeatInterval:  50 * time.Millisecond,
		Seed:               1,
		MaxInflightEntries: 1024,
		MaxInflightBytes:   1 << 20,
		MaxAppendEntries:   64,
		SnapChunkSize:      32 << 10,
		MaxClockDrift:      20 * time.Millisecond,
	}
}

// Cluster manages a fixed-membership set of Raft nodes with crash/restart
// support. It is the unit the etcd layer builds on (the paper's "ETCD
// itself is replicated (3-way), and uses the Raft consensus protocol").
type Cluster struct {
	cfg   Config
	trans *Transport

	mu       sync.Mutex
	ids      []int
	storages map[int]*MemoryStorage
	nodes    map[int]*Node // nil entry = crashed
	clks     map[int]*clock.Skewed
	mtr      *metrics.Registry
}

// NewCluster boots n fresh nodes (IDs 0..n-1).
func NewCluster(n int, cfg Config) *Cluster {
	if n <= 0 {
		panic("raft: cluster size must be positive")
	}
	c := &Cluster{
		cfg:      cfg,
		storages: make(map[int]*MemoryStorage, n),
		nodes:    make(map[int]*Node, n),
		clks:     make(map[int]*clock.Skewed, n),
	}
	for i := 0; i < n; i++ {
		c.ids = append(c.ids, i)
	}
	c.trans = NewTransport(cfg.Clock, time.Millisecond, cfg.Seed, c.ids)
	for _, id := range c.ids {
		// Each node reads time through its own skewable view of the
		// shared clock (timers stay true — skew shifts readings, not
		// rates), so clock-skew faults hit exactly one node's lease math.
		c.clks[id] = clock.NewSkewed(cfg.Clock, 0)
		c.storages[id] = NewMemoryStorage()
		c.nodes[id] = startNode(id, c.ids, c.nodeConfig(id), c.storages[id], c.trans)
	}
	return c
}

// nodeConfig is the cluster config specialized to one node: the shared
// tunables plus the node's private skewable clock view.
func (c *Cluster) nodeConfig(id int) Config {
	cfg := c.cfg
	cfg.Clock = c.clks[id]
	return cfg
}

// Transport exposes the message fabric for partition and link-fault
// injection.
func (c *Cluster) Transport() *Transport { return c.trans }

// Instrument mirrors every node's replication counters into reg
// (re-applied to nodes booted by later Restarts).
func (c *Cluster) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mtr = reg
	for _, n := range c.nodes {
		if n != nil {
			n.setRegistry(reg)
		}
	}
}

// ReplicationStats returns the cumulative replication counters of every
// live node, keyed by node ID. Crashed nodes' counters reset on restart.
func (c *Cluster) ReplicationStats() map[int]ReplicationStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]ReplicationStats, len(c.nodes))
	for id, n := range c.nodes {
		if n != nil {
			out[id] = n.ReplicationStats()
		}
	}
	return out
}

// IDs returns the cluster membership.
func (c *Cluster) IDs() []int {
	out := make([]int, len(c.ids))
	copy(out, c.ids)
	return out
}

// Node returns the live node with the given ID, or nil if crashed.
func (c *Cluster) Node(id int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// Crash stops the node, preserving its persistent storage.
func (c *Cluster) Crash(id int) {
	c.mu.Lock()
	n := c.nodes[id]
	c.nodes[id] = nil
	c.mu.Unlock()
	if n != nil {
		n.stop()
	}
}

// Restart boots a crashed node from its persisted state.
func (c *Cluster) Restart(id int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nodes[id] != nil {
		return c.nodes[id]
	}
	st, ok := c.storages[id]
	if !ok {
		panic(fmt.Sprintf("raft: unknown node %d", id))
	}
	// nodeConfig keeps the node's skewable clock, so its skew survives the
	// restart.
	n := startNode(id, c.ids, c.nodeConfig(id), st, c.trans)
	if c.mtr != nil {
		n.setRegistry(c.mtr)
	}
	c.nodes[id] = n
	return n
}

// SetClockSkew offsets node id's local clock readings by d (0 heals
// it). Timers are unaffected — real skew shifts a clock's value, not
// its rate — which is precisely what makes a stale lease deadline
// dangerous and what the drift-bound defenses must catch.
func (c *Cluster) SetClockSkew(id int, d time.Duration) { //lint:allow deadexport test fault switch: the lease-safety tests (raft, etcd) skew a clock past the drift bound
	c.mu.Lock()
	defer c.mu.Unlock()
	if sk, ok := c.clks[id]; ok {
		sk.SetOffset(d)
	}
}

// ReadStats sums the read-path counters of every live node. Crashed
// nodes' counters reset on restart, like ReplicationStats.
func (c *Cluster) ReadStats() ReadStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out ReadStats
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		rs := n.ReadStats()
		out.Rounds += rs.Rounds
		out.RoundReads += rs.RoundReads
		out.LeaseReads += rs.LeaseReads
		out.LeaseExpiries += rs.LeaseExpiries
	}
	return out
}

// Leader returns the current leader node, or nil if none is known.
// During a partition a deposed leader may still believe it leads in a
// stale term; the node leading in the highest term is the real one, so
// ties in role are broken by term — returning the first node found in
// Leader state would route proposals (and any read path) to the stale
// one with map-iteration luck.
func (c *Cluster) Leader() *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *Node
	var bestTerm uint64
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		if st, term := n.Status(); st == Leader && (best == nil || term > bestTerm) {
			best, bestTerm = n, term
		}
	}
	return best
}

// WaitLeader blocks until some node is leader or the deadline (in clock
// time) passes. It returns the leader or nil on timeout.
func (c *Cluster) WaitLeader(timeout time.Duration) *Node {
	deadline := c.cfg.Clock.Now().Add(timeout)
	for c.cfg.Clock.Now().Before(deadline) {
		if l := c.Leader(); l != nil {
			return l
		}
		c.cfg.Clock.Sleep(10 * time.Millisecond)
	}
	return c.Leader()
}

// Stop shuts down every live node.
func (c *Cluster) Stop() {
	c.mu.Lock()
	var ids []int
	for id, n := range c.nodes {
		if n != nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	live := make([]*Node, 0, len(ids))
	for _, id := range ids {
		live = append(live, c.nodes[id])
		c.nodes[id] = nil
	}
	c.mu.Unlock()
	for _, n := range live {
		n.stop()
	}
}
