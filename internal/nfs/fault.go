package nfs

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/clock"
)

// ErrFaulted is returned by data operations while the server is in
// FaultError mode — the EIO a soft-mounted NFS client surfaces when the
// server stops answering.
var ErrFaulted = errors.New("nfs: server fault injected")

// FaultMode selects how an injected NFS outage manifests to clients.
type FaultMode int

// Fault modes.
const (
	// FaultNone: the server is healthy.
	FaultNone FaultMode = iota
	// FaultStall models a hard-mounted NFS outage: data operations
	// (Read, Write, Append) block in virtual time until the fault is
	// healed, then complete normally. No write is ever lost — the
	// paper's deployments hard-mount the shared volume precisely so a
	// volume flap pauses the job instead of corrupting it.
	FaultStall
	// FaultError models a soft-mounted outage: Read fails with
	// ErrFaulted and Write/Append are silently dropped (the EIO is
	// swallowed by fire-and-forget writers). This mode loses data by
	// design; the campaign uses FaultStall and exercises FaultError
	// only in unit tests.
	FaultError
)

// String implements fmt.Stringer.
func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultStall:
		return "stall"
	case FaultError:
		return "error"
	default:
		return fmt.Sprintf("fault(%d)", int(m))
	}
}

// faultPollGrain is the cadence, in virtual time and counted from the
// call, on which a stalled operation re-checks the server's health: the
// operation resumes on its first tick after the heal.
const faultPollGrain = 50 * time.Millisecond

// InjectFault puts the server into the given fault mode. Volume flap is
// InjectFault(FaultStall) followed, a window later, by Heal.
func (s *Server) InjectFault(m FaultMode) {
	s.mu.Lock()
	s.fault = m
	close(s.changed) // wakes every stalled operation to look again
	s.changed = make(chan struct{})
	s.mu.Unlock()
}

// Heal clears any injected fault; each stalled operation completes on
// the next tick of its own faultPollGrain cadence.
func (s *Server) Heal() { s.InjectFault(FaultNone) }

// FaultMode returns the server's current fault mode.
func (s *Server) FaultMode() FaultMode { //lint:allow deadexport test-observation point: the fault tests and the campaign engine's tests check the mode in force
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fault
}

// awaitHealthy blocks (in virtual time) while the server is stalled and
// returns the mode in effect once the operation may proceed: FaultNone
// after a heal, or FaultError if the caller must fail instead.
func (s *Server) awaitHealthy() FaultMode {
	for {
		s.mu.Lock()
		m, changed := s.fault, s.changed
		s.mu.Unlock()
		if m != FaultStall {
			return m
		}
		clock.SleepUntil(s.clk, faultPollGrain, changed, nil)
	}
}
