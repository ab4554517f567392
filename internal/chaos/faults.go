package chaos

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/etcd"
	"repro/internal/nfs"
)

// ErrNotAttached indicates a fault primitive needs a substrate handle
// (etcd, NFS) that was never attached to the injector.
var ErrNotAttached = errors.New("chaos: substrate not attached")

// AttachEtcd hands the injector the platform's coordination store so it
// can inject partitions and replica crashes. Returns the injector for
// chaining at construction.
func (i *Injector) AttachEtcd(s *etcd.Store) *Injector {
	i.etcd = s
	return i
}

// AttachNFS hands the injector the shared-volume server so it can
// inject volume flaps.
func (i *Injector) AttachNFS(s *nfs.Server) *Injector {
	i.nfs = s
	return i
}

// ---- Pod and node targeting ---------------------------------------

// KillOnePod crash-kills the first Running pod matching selector and
// returns its name.
func (i *Injector) KillOnePod(selector map[string]string) (string, error) {
	victim := i.runningPod(selector)
	if victim == nil {
		return "", fmt.Errorf("selecting %v: %w", selector, ErrNoTarget)
	}
	if err := i.cluster.DeletePod(victim.Name()); err != nil {
		return "", err
	}
	return victim.Name(), nil
}

// KillAllPods crash-kills every pod matching selector simultaneously (a
// correlated outage, e.g. both API replicas at once) and returns how
// many it killed.
func (i *Injector) KillAllPods(selector map[string]string) (int, error) {
	pods := i.cluster.Pods(selector)
	if len(pods) == 0 {
		return 0, fmt.Errorf("selecting %v: %w", selector, ErrNoTarget)
	}
	for _, p := range pods {
		_ = i.cluster.DeletePod(p.Name())
	}
	return len(pods), nil
}

// AwaitRunning blocks (in virtual time) until a Running pod matches
// selector, polling at the measurement grain. It makes chained faults
// land deterministically — "crash the node the learner *rescheduled
// onto*" must first wait out the reschedule.
func (i *Injector) AwaitRunning(selector map[string]string, timeout time.Duration) error {
	if !i.await(timeout, func() bool { return i.runningPod(selector) != nil }) {
		return fmt.Errorf("awaiting %v for %v: %w", selector, timeout, ErrNoTarget)
	}
	return nil
}

// NodeOf returns the node hosting the first Running pod matching
// selector — the targeting step of node-scoped faults ("the node the
// learner is on").
func (i *Injector) NodeOf(selector map[string]string) (string, error) {
	p := i.runningPod(selector)
	if p == nil {
		return "", fmt.Errorf("selecting %v: %w", selector, ErrNoTarget)
	}
	node := p.NodeName()
	if node == "" {
		return "", fmt.Errorf("pod %s not yet bound: %w", p.Name(), ErrNoTarget)
	}
	return node, nil
}

// CrashNodeOf crashes the node hosting the first Running pod matching
// selector and returns the node's name (for a later RestartNode).
func (i *Injector) CrashNodeOf(selector map[string]string) (string, error) {
	node, err := i.NodeOf(selector)
	if err != nil {
		return "", err
	}
	return node, i.cluster.CrashNode(node)
}

// DrainNodeOf drains the node hosting the first Running pod matching
// selector (kubectl drain — with an eviction grace period this flows
// through the two-phase checkpoint-then-evict protocol) and returns the
// node's name for a later UncordonNode.
func (i *Injector) DrainNodeOf(selector map[string]string) (string, error) {
	node, err := i.NodeOf(selector)
	if err != nil {
		return "", err
	}
	return node, i.cluster.DrainNode(node)
}

// UncordonNode returns a drained node to service.
func (i *Injector) UncordonNode(name string) error {
	return i.cluster.UncordonNode(name)
}

// SkewNodeClockOf offsets the local clock of the node hosting the first
// Running pod matching selector, returning the node's name. A zero
// offset later heals it.
func (i *Injector) SkewNodeClockOf(selector map[string]string, offset time.Duration) (string, error) {
	node, err := i.NodeOf(selector)
	if err != nil {
		return "", err
	}
	return node, i.cluster.SetNodeSkew(node, offset)
}

// ---- NFS volume flap ----------------------------------------------

// StallNFS begins an NFS volume flap: data operations on every volume
// block in virtual time until HealNFS. Hard-mount semantics — writes
// pause, none are lost.
func (i *Injector) StallNFS() error {
	if i.nfs == nil {
		return fmt.Errorf("stalling NFS: %w", ErrNotAttached)
	}
	i.nfs.InjectFault(nfs.FaultStall)
	return nil
}

// WedgeVolumeFile writes a marker file onto a job's shared volume — the
// hook learners poll to simulate the alive-but-stuck failure mode (see
// learner.WedgePath): the process stays up and keeps reporting TRAINING
// but makes no progress, so only a liveness deadline can catch it.
// Unlike flaps and partitions, the marker is volume state, not a server
// fault — HealAll deliberately leaves it in place, because a wedged
// process does not get better when the infrastructure does.
func (i *Injector) WedgeVolumeFile(volume, path string) error {
	if i.nfs == nil {
		return fmt.Errorf("wedging volume %s: %w", volume, ErrNotAttached)
	}
	vol, err := i.nfs.Volume(volume)
	if err != nil {
		return fmt.Errorf("wedging volume %s: %w", volume, err)
	}
	vol.Write(path, []byte("wedged"))
	return nil
}

// HealNFS ends a volume flap; stalled operations complete.
func (i *Injector) HealNFS() error {
	if i.nfs == nil {
		return fmt.Errorf("healing NFS: %w", ErrNotAttached)
	}
	i.nfs.Heal()
	return nil
}

// ---- etcd partitions ----------------------------------------------

// PartitionEtcdLeader cuts the current etcd leader off from its peers
// (and clients reach only the majority side), forcing an election. The
// partitioned replica's id is returned for HealEtcd. With a single
// replica this partitions the whole store — a full etcd outage.
func (i *Injector) PartitionEtcdLeader() (int, error) {
	if i.etcd == nil {
		return 0, fmt.Errorf("partitioning etcd: %w", ErrNotAttached)
	}
	leader := i.etcd.LeaderID()
	i.etcd.PartitionNode(leader)
	return leader, nil
}

// HealEtcd reconnects a partitioned etcd replica.
func (i *Injector) HealEtcd(id int) error {
	if i.etcd == nil {
		return fmt.Errorf("healing etcd: %w", ErrNotAttached)
	}
	i.etcd.HealNode(id)
	return nil
}

// HealAll reverts every standing fault this injector can have left
// behind: NFS flap, etcd partitions, crashed/cordoned nodes, and node
// clock skew. Campaign scenarios run it deferred so a failed scenario
// cannot leak faults into teardown (an unhealed NFS stall would spin
// against a closing clock).
func (i *Injector) HealAll() {
	if i.nfs != nil {
		i.nfs.Heal()
	}
	if i.etcd != nil {
		for _, id := range i.etcd.Nodes() {
			i.etcd.HealNode(id)
		}
	}
	for _, n := range i.cluster.Nodes() {
		name := n.Spec.Name
		if n.Down() {
			_ = i.cluster.RestartNode(name)
		}
		if n.Cordoned() {
			_ = i.cluster.UncordonNode(name)
		}
		_ = i.cluster.SetNodeSkew(name, 0)
	}
}
