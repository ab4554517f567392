// Package nfs models the shared NFS volume that a DL job's learner and
// helper pods both mount ("the helper pod remains isolated from the
// learner pods, but both share a common NFS filesystem, mounted by the
// Guardian using a K8S persistent volume claim"). The volume is the
// coordination medium of the paper's failure-detection design: learners
// redirect logs and exit statuses to files, and the controller container
// in the helper pod reads them — surviving crashes of either side.
//
// Calls come in two prices, as on a real NFS client. Data calls — Read,
// Write, Append (and ReadExitCode/WriteExitCode on top of them) — each
// pay one NFSLink.Latency round trip on the virtual clock and obey the
// injected fault mode; a Compound of writes and appends shares one,
// which its caller has slept. Attribute calls — Stat, Exists — are
// served from the client's attribute view: no latency, never stalled or
// failed by a fault. A periodic loop therefore asks Stat whether a file's
// Gen moved and pays for a Read only when it did.
//
// A pass of such a loop that finds every Gen where it left it costs no
// clock time, so on a virtual clock the loop need not wake for it at
// all: Volume.Subscribe tells the loop when a path it Stats was written,
// and clock.SleepUntil sleeps through the ticks before that. That is a
// shortcut of the simulator, not a feature of the modelled NFS — the
// signal carries nothing, the loop still runs on its cadence, and Stat
// and Read remain the only way to learn what is on the volume.
package nfs

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// Common errors.
var (
	// ErrNoVolume indicates the volume does not exist.
	ErrNoVolume = errors.New("nfs: no such volume")
	// ErrNoFile indicates the file does not exist on the volume.
	ErrNoFile = errors.New("nfs: no such file")
	// ErrVolumeExists indicates a provisioning name collision.
	ErrVolumeExists = errors.New("nfs: volume already exists")
)

// Server hosts named shared volumes.
type Server struct {
	clk  clock.Clock
	link netsim.Link

	mu      sync.Mutex
	volumes map[string]*Volume
	fault   FaultMode
	changed chan struct{} // closed, and replaced, when fault changes

	ops [len(opNames)]atomic.Uint64 // operations served, across all volumes
	mtr atomic.Pointer[metrics.Registry]
}

// opKind indexes the per-kind operation counters.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opAppend
	opStat
)

var opNames = [...]string{opRead: "read", opWrite: "write", opAppend: "append", opStat: "stat"}

// NewServer returns an NFS server on clk; file operations are charged
// per-operation latency from link.
func NewServer(clk clock.Clock) *Server {
	return &Server{clk: clk, link: netsim.NFSLink, volumes: make(map[string]*Volume), changed: make(chan struct{})}
}

// Provision creates a volume (the Guardian does this per job through a
// PVC). Provisioning is idempotent per name only in the error sense:
// creating an existing name fails with ErrVolumeExists.
func (s *Server) Provision(name string) (*Volume, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.volumes[name]; ok {
		return nil, fmt.Errorf("provisioning %q: %w", name, ErrVolumeExists)
	}
	v := &Volume{name: name, srv: s, files: make(map[string]file)}
	s.volumes[name] = v
	return v, nil
}

// Volume returns the named volume.
func (s *Server) Volume(name string) (*Volume, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.volumes[name]
	if !ok {
		return nil, fmt.Errorf("mounting %q: %w", name, ErrNoVolume)
	}
	return v, nil
}

// Release deletes the volume and its contents (job teardown).
func (s *Server) Release(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.volumes, name)
}

// Instrument mirrors the operation counters into reg as nfs_ops{op}.
// Call before serving.
func (s *Server) Instrument(reg *metrics.Registry) {
	if reg != nil {
		s.mtr.Store(reg)
	}
}

// OpCounts reports how many operations the server has served, by kind:
// "read", "write" and "append" are data calls that paid a round trip (a
// Read of a missing file counts; one refused or dropped by FaultError
// does not), "stat" is every attribute call (Stat, Exists).
func (s *Server) OpCounts() map[string]uint64 { //lint:allow deadexport ROADMAP item 1b's nfs.reads_per_job row reads it
	out := make(map[string]uint64, len(opNames))
	for op, name := range opNames {
		out[name] = s.ops[op].Load()
	}
	return out
}

// served tallies one operation of the given kind.
func (s *Server) served(op opKind) {
	s.ops[op].Add(1)
	if reg := s.mtr.Load(); reg != nil {
		reg.Inc("nfs_ops", opNames[op])
	}
}

// file is one file's contents and the generation that last changed them.
type file struct {
	data []byte
	gen  uint64
}

// FileInfo is the attribute view of a file.
type FileInfo struct {
	// Size is the file's length in bytes.
	Size int64
	// Gen is the value of the volume's change counter when the file was
	// last written or appended to: it differs after every change that
	// lands, including a rewrite of identical length and a re-creation
	// after Remove, and is never 0 for a file that exists.
	Gen uint64
}

// Volume is a single shared filesystem.
type Volume struct {
	name string
	srv  *Server

	mu    sync.Mutex
	files map[string]file
	gen   uint64 // change counter: bumped by every Write/Append that lands
	subs  map[string][]*Subscription
}

// Subscription is a "look again" signal for a set of paths on a volume:
// C holds a token once any of them has been written, appended to or
// removed since the token was last taken. It says that something
// changed, never what — the subscriber Stats and Reads to find out.
type Subscription struct {
	vol   *Volume
	paths []string
	ch    chan struct{}
}

// Subscribe returns a subscription to changes of the given paths. To
// miss nothing, subscribe before the first Stat of the files.
func (v *Volume) Subscribe(paths ...string) *Subscription {
	sub := &Subscription{vol: v, paths: paths, ch: make(chan struct{}, 1)}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.subs == nil {
		v.subs = make(map[string][]*Subscription)
	}
	for _, p := range paths {
		v.subs[p] = append(v.subs[p], sub)
	}
	return sub
}

// C is the signal: capacity one, so changes coalesce into one token and
// a writer never waits for a subscriber.
func (s *Subscription) C() <-chan struct{} { return s.ch }

// Close ends the subscription.
func (s *Subscription) Close() {
	v := s.vol
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, p := range s.paths {
		subs := v.subs[p]
		for i, x := range subs {
			if x == s {
				v.subs[p] = append(subs[:i], subs[i+1:]...)
				break
			}
		}
	}
}

// changedLocked signals the subscribers of path. v.mu is held.
func (v *Volume) changedLocked(path string) {
	for _, sub := range v.subs[path] {
		select {
		case sub.ch <- struct{}{}:
		default:
		}
	}
}

// Write replaces the file's contents. In FaultError mode the write is
// silently dropped (soft-mount EIO swallowed by the writer).
func (v *Volume) Write(path string, data []byte) {
	if v.roundTrip(false) {
		v.land(path, data, false)
	}
}

// Append adds data to the end of the file, creating it if absent. This
// is the learner's log-write primitive. In FaultError mode the append
// is silently dropped.
func (v *Volume) Append(path string, data []byte) {
	if v.roundTrip(false) {
		v.land(path, data, true)
	}
}

// Call is one data call of a Compound: Data replaces the file at Path,
// or is added to its end when Append is set.
type Call struct {
	Path   string
	Data   []byte
	Append bool
}

// Compound lands calls, in order, in one round trip the caller has
// already waited — several calls in one NFSv4 COMPOUND. The one way it
// differs from making the calls one by one: the fault mode is read when
// they land, a round trip after the caller started them. FaultError drops
// them all; FaultStall holds them to the heal and then charges the round
// trip a fresh call would pay.
func (v *Volume) Compound(calls ...Call) {
	if v.roundTrip(true) {
		for _, c := range calls {
			v.land(c.Path, c.Data, c.Append)
		}
	}
}

// roundTrip waits out a data call's round trip unless the caller paid it
// and no stall came between; false means FaultError fails the call.
func (v *Volume) roundTrip(paid bool) bool {
	mode, stalled := v.srv.awaitHealthy()
	if mode != FaultError && (stalled || !paid) {
		v.srv.clk.Sleep(v.srv.link.Latency)
	}
	return mode != FaultError
}

// land lands one Write, or Append if appending, whose round trip is over.
func (v *Volume) land(path string, data []byte, appending bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	op, kept := opWrite, []byte(nil) // the file keeps a copy: data stays the caller's
	if appending {
		op, kept = opAppend, v.files[path].data
	}
	v.srv.served(op)
	v.gen++
	v.files[path] = file{data: append(kept, data...), gen: v.gen}
	v.changedLocked(path)
}

// Read returns a copy of the file's contents. In FaultError mode it
// fails with ErrFaulted.
func (v *Volume) Read(path string) ([]byte, error) {
	if !v.roundTrip(false) {
		return nil, fmt.Errorf("reading %s on %s: %w", path, v.name, ErrFaulted)
	}
	v.srv.served(opRead)
	v.mu.Lock()
	defer v.mu.Unlock()
	f, ok := v.files[path]
	if !ok {
		return nil, fmt.Errorf("reading %s on %s: %w", path, v.name, ErrNoFile)
	}
	cp := make([]byte, len(f.data))
	copy(cp, f.data)
	return cp, nil
}

// Stat returns the file's attributes; ok is false if path is absent.
func (v *Volume) Stat(path string) (info FileInfo, ok bool) {
	v.srv.served(opStat)
	v.mu.Lock()
	defer v.mu.Unlock()
	f, ok := v.files[path]
	if !ok {
		return FileInfo{}, false
	}
	return FileInfo{Size: int64(len(f.data)), Gen: f.gen}, true
}

// Exists reports whether path is present.
func (v *Volume) Exists(path string) bool {
	_, ok := v.Stat(path)
	return ok
}

// Exit-status convention: learner process i writes its exit code to
// "learner-<i>/exitcode" when it terminates in an orderly way. The
// controller polls these files to detect completion and failure — the
// paper's "reading their output (e.g., exit status redirected to a
// file)".

// ExitCodePath returns the conventional exit-status path for a learner.
func ExitCodePath(learnerIdx int) string {
	return "learner-" + strconv.Itoa(learnerIdx) + "/exitcode"
}

// WriteExitCode records a learner's exit code at path, its ExitCodePath.
func (v *Volume) WriteExitCode(path string, code int) {
	v.Write(path, []byte(strconv.Itoa(code)))
}

// ReadExitCode returns the exit code a learner recorded at path, its
// ExitCodePath. ok reports whether the learner has terminated (file
// present and well-formed).
func (v *Volume) ReadExitCode(path string) (code int, ok bool) {
	data, err := v.Read(path)
	if err != nil {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil {
		return 0, false
	}
	return n, true
}
