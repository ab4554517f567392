package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/etcd"
)

// etcdReplicas is the paper's (and the platform's default) cluster size.
const etcdReplicas = 3

// preloadBatch is how many preload Puts ride in one set-up Txn.
const preloadBatch = 64

// metaSystem is a bare replicated store: the meta-* workloads drive the
// write and read paths directly and the job machinery does nothing.
type metaSystem struct {
	in  *inputs
	sim *clock.Sim
	kv  *etcd.Store

	recv []watchRecv // what the prefix watcher saw, in delivery order
	logs []*opLog    // one per client
}

// watchRecv is one watch event and the wall offset it arrived at.
type watchRecv struct {
	ev etcd.Event
	at time.Duration
}

func buildMeta(in *inputs) (system, error) {
	sim := clock.NewSim()
	kv, err := etcd.NewWithOptions(etcdReplicas, sim, etcd.StoreOptions{})
	if err != nil {
		sim.Close()
		return nil, err
	}
	m := &metaSystem{in: in, sim: sim, kv: kv}
	// The first write rides out the initial election. Its key is outside
	// kvRoot so the watcher and the final Range never see it.
	if err := retryPut(kv, "/warm", "x", 50); err != nil {
		m.close()
		return nil, fmt.Errorf("cluster never elected a leader: %w", err)
	}
	for lo := 0; lo < len(in.Preload); lo += preloadBatch {
		hi := lo + preloadBatch
		if hi > len(in.Preload) {
			hi = len(in.Preload)
		}
		puts := make([]etcd.TxnOp, 0, preloadBatch)
		for _, p := range in.Preload[lo:hi] {
			puts = append(puts, etcd.TxnOp{Type: etcd.EventPut, Key: p.Key, Value: p.Value})
		}
		if ok, _, err := kv.Txn(nil, puts, nil); err != nil || !ok {
			m.close()
			return nil, fmt.Errorf("preloading keys: ok=%v: %w", ok, err)
		}
	}
	return m, nil
}

// retryPut writes key until it commits or tries run out.
func retryPut(kv *etcd.Store, key, value string, tries int) error {
	var err error
	for i := 0; i < tries; i++ {
		if _, err = kv.Put(key, value); err == nil {
			return nil
		}
	}
	return err
}

func (m *metaSystem) simClock() clock.Clock { return m.sim }

func (m *metaSystem) close() {
	m.kv.Close()
	m.sim.Close()
}

func (m *metaSystem) timed(r *runner) int {
	events, cancel := m.kv.Watch(kvRoot)
	defer cancel()
	m.recv = make([]watchRecv, 0, m.in.Writes)
	watcherDone := make(chan struct{})
	stopWatcher := make(chan struct{})
	go func() {
		defer close(watcherDone)
		for len(m.recv) < m.in.Writes {
			select {
			case ev, open := <-events:
				if !open {
					return
				}
				m.recv = append(m.recv, watchRecv{ev: ev, at: r.watch.wall()})
			case <-stopWatcher:
				return
			}
		}
	}()

	m.logs = make([]*opLog, len(m.in.Scripts))
	var wg sync.WaitGroup
	for c, script := range m.in.Scripts {
		m.logs[c] = newOpLog(r.phase, len(script))
		wg.Add(1)
		go func(c int, script []kvOp) {
			defer wg.Done()
			m.client(r, c, script)
		}(c, script)
	}
	wg.Wait()

	// The timed phase ends with the last reply; the watcher may still be
	// draining its channel. Give it a bounded wall-clock grace.
	grace := clock.NewReal().NewTimer(10 * time.Second)
	defer grace.Stop()
	select {
	case <-watcherDone:
	case <-grace.C():
		close(stopWatcher)
		<-watcherDone
	}

	var requests []span
	for _, l := range m.logs {
		r.tree.merge(l)
		requests = append(requests, l.spans...)
	}
	r.setRequests(requests)
	return m.in.KVCalls
}

// client replays one script, closed loop, checking every reply against
// the generator's prediction.
func (m *metaSystem) client(r *runner, c int, script []kvOp) {
	log := m.logs[c]
	var lastRev uint64
	for i, op := range script {
		var rev uint64
		var detail string
		err := log.time(r.watch, op.Kind, func() error {
			switch op.Kind {
			case "put":
				var err error
				rev, err = m.kv.Put(op.Key, op.Value)
				return err
			case "delete":
				return m.kv.Delete(op.Key)
			case "get":
				v, found, err := m.kv.Get(op.Key)
				if err == nil && (found != op.WantFound || v != op.WantValue) {
					detail = fmt.Sprintf("got found=%v %.20q, want found=%v %.20q", found, v, op.WantFound, op.WantValue)
				}
				return err
			case "range":
				kvs, err := m.kv.Range(op.Key)
				if err == nil && !sameKVs(kvs, op.WantRange) {
					detail = fmt.Sprintf("got %d keys, want %d", len(kvs), len(op.WantRange))
				}
				return err
			default: // txn
				cmp := []etcd.Cmp{{Key: op.Key, Prev: op.GuardPrev, PrevExists: op.GuardExists}}
				then := []etcd.TxnOp{
					{Type: etcd.EventPut, Key: op.Key, Value: op.Value},
					{Type: etcd.EventPut, Key: op.Key2, Value: op.Value2},
				}
				ok, txnRev, err := m.kv.Txn(cmp, then, nil)
				if err == nil && !ok {
					detail = "guard that must hold failed"
				}
				rev = txnRev
				return err
			}
		})
		if err == nil && detail == "" && rev != 0 {
			if rev <= lastRev {
				detail = fmt.Sprintf("revision %d not above the client's previous %d", rev, lastRev)
			}
			lastRev = rev
		}
		r.check(err == nil && detail == "", "client %d op %d %s %s: err=%v %s", c, i, op.Kind, op.Key, err, detail)
	}
}

func sameKVs(got []etcd.KV, want []kvPair) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Key != want[i].Key || got[i].Value != want[i].Value {
			return false
		}
	}
	return true
}

// verify checks the final state against the reference map and the
// watcher's stream against the scripts: every committed write exactly
// once, each client's writes in program order, revisions never falling.
func (m *metaSystem) verify(r *runner) {
	kvs, err := m.kv.Range(kvRoot)
	r.check(err == nil && sameKVs(kvs, m.in.Final),
		"final Range: %d keys, err=%v, reference has %d", len(kvs), err, len(m.in.Final))

	expected := make([][]kvPair, len(m.in.Scripts))
	for c, script := range m.in.Scripts {
		for _, op := range script {
			expected[c] = append(expected[c], op.writes()...)
		}
	}
	cursor := make([]int, len(expected))
	var lastRev uint64
	inOrder := true
	for i, rc := range m.recv {
		c := clientOf(rc.ev.Key)
		if c < 0 || c >= len(expected) || cursor[c] >= len(expected[c]) {
			inOrder = r.check(false, "watch event %d: unexpected key %s", i, rc.ev.Key)
			break
		}
		want := expected[c][cursor[c]]
		cursor[c]++
		wantType := etcd.EventPut
		if want.Value == "" {
			wantType = etcd.EventDelete
		}
		if rc.ev.Key != want.Key || rc.ev.Type != wantType || (wantType == etcd.EventPut && rc.ev.Value != want.Value) || rc.ev.Rev < lastRev {
			inOrder = r.check(false, "watch event %d: got %s %s rev %d (previous rev %d), want key %s", i, rc.ev.Type, rc.ev.Key, rc.ev.Rev, lastRev, want.Key)
			break
		}
		lastRev = rc.ev.Rev
	}
	if inOrder {
		r.check(len(m.recv) == m.in.Writes, "watcher saw %d events, scripts committed %d writes", len(m.recv), m.in.Writes)
	}
}

func (m *metaSystem) counters() map[string]float64 { return etcdCounters(m.kv) }

// etcdCounters flattens the counters the etcd facade and the raft nodes
// under it export.
func etcdCounters(kv *etcd.Store) map[string]float64 {
	out := map[string]float64{"etcd.proposals": float64(kv.Proposals())}
	for kind, n := range kv.OpCounts() {
		out["etcd.op."+kind] = float64(n)
	}
	batches, cmds := kv.BatchStats()
	out["etcd.batches"], out["etcd.batched_cmds"] = float64(batches), float64(cmds)
	rs := kv.ReadStats()
	out["raft.read_rounds"], out["raft.lease_reads"] = float64(rs.Rounds), float64(rs.LeaseReads)
	for _, st := range kv.ReplicationStats() {
		out["raft.appends"] += float64(st.AppendsSent)
		out["raft.entries"] += float64(st.EntriesSent)
		out["raft.rejects"] += float64(st.AppendRejects)
	}
	return out
}

// etcdLayer derives the etcd and raft counter ratios shared by every
// workload from a counter delta.
func etcdLayer(r *runner, d map[string]float64) {
	writes := d["etcd.op.put"] + d["etcd.op.delete"] + d["etcd.op.cas"] + d["etcd.op.txn"]
	reads := d["etcd.op.get"] + d["etcd.op.range"]
	var fails, all float64
	for _, kind := range []string{"put", "delete", "cas", "txn", "get", "range", "watch"} {
		fails += d["etcd.op."+kind+"_fail"]
		all += d["etcd.op."+kind] + d["etcd.op."+kind+"_fail"]
	}
	r.set("etcd.proposals_per_write", ratio(d["etcd.proposals"], writes), int(writes))
	r.set("etcd.cmds_per_batch", ratio(d["etcd.batched_cmds"], d["etcd.batches"]), int(d["etcd.batches"]))
	r.set("etcd.lease_reads_per_read", ratio(d["raft.lease_reads"], reads), int(reads))
	r.set("etcd.rounds_per_read", ratio(d["raft.read_rounds"], reads), int(reads))
	r.set("etcd.op_fail_share", ratio(fails, all), int(all))
	r.set("raft.entries_per_append", ratio(d["raft.entries"], d["raft.appends"]), int(d["raft.appends"]))
	r.set("raft.append_rejects", d["raft.rejects"], 0)
}

func (m *metaSystem) layers(r *runner, d map[string]float64, ops int) {
	etcdLayer(r, d)
	puts := r.tree.named("put")
	r.setPercentile("put_wall_us_p50", wallsOf(puts), 50, micros)
	r.setPercentile("put_wall_us_p99", wallsOf(puts), 99, micros)
	r.setPercentile("put_virtual_ms_p50", virtualsOf(puts), 50, millis)
	r.setPercentile("get_wall_us_p50", wallsOf(r.tree.named("get")), 50, micros)
	r.setPercentile("range_wall_us_p50", wallsOf(r.tree.named("range")), 50, micros)
	r.setPercentile("etcd.txn_wall_us_p50", wallsOf(r.tree.named("txn")), 50, micros)
	r.setPercentile("etcd.delete_wall_us_p50", wallsOf(r.tree.named("delete")), 50, micros)

	// Watch delivery: from the start of the call that made the write to
	// the watcher receiving its event. Events arrive in each client's
	// program order (verify checks that), so the n-th event of a client
	// belongs to its n-th write.
	starts := make([][]time.Duration, len(m.in.Scripts))
	for c, script := range m.in.Scripts {
		for i, op := range script {
			for range op.writes() {
				starts[c] = append(starts[c], m.logs[c].spans[i].Start)
			}
		}
	}
	cursor := make([]int, len(starts))
	var delivery []time.Duration
	for _, rc := range m.recv {
		c := clientOf(rc.ev.Key)
		if c < 0 || c >= len(starts) || cursor[c] >= len(starts[c]) {
			break
		}
		delivery = append(delivery, rc.at-starts[c][cursor[c]])
		cursor[c]++
	}
	r.setPercentile("etcd.watch_delivery_wall_us_p50", delivery, 50, micros)
}
