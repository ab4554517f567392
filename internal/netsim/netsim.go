// Package netsim models the data-movement fabrics that dominate deep-
// learning training performance: datacenter Ethernet for training-data
// streaming, PCIe and NVLink for inter-GPU gradient exchange, and memory
// buses. It provides analytic transfer-time computation plus a shared-link
// abstraction that meters concurrent streams over the virtual clock.
//
// The paper's evaluation (Figs. 2 and 3) compares throughput across
// interconnects (1GbE streaming, PCIe vs NVLink gradient sync); this
// package supplies those bandwidth/latency models.
package netsim

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
)

// Bandwidth is measured in bytes per second.
type Bandwidth float64

// Common bandwidth units.
const (
	MBps Bandwidth = 1e6
	GBps Bandwidth = 1e9
)

// Link describes a point-to-point or bus interconnect.
type Link struct {
	// Name identifies the link type, e.g. "1GbE" or "NVLink".
	Name string
	// Bandwidth is the usable (not theoretical) data rate.
	Bandwidth Bandwidth
	// Latency is the per-message fixed cost.
	Latency time.Duration
}

// Standard interconnect catalog. Bandwidths are effective application-level
// rates, not marketing peak numbers.
var (
	// Ethernet1G is the 1GbE datacenter network used in the paper's
	// Fig. 2 experiments for both DLaaS and bare metal.
	Ethernet1G = Link{Name: "1GbE", Bandwidth: 117 * MBps, Latency: 100 * time.Microsecond}

	// PCIe3x16 is the host interconnect of the K80 and PCIe-P100 systems.
	// ~16 GB/s theoretical, ~12 GB/s effective, halved for the shared
	// switch topology typical of multi-GPU PCIe boxes.
	PCIe3x16 = Link{Name: "PCIe3x16", Bandwidth: 10 * GBps, Latency: 5 * time.Microsecond}

	// NVLinkV1 is the DGX-1 GPU interconnect: 4 links x 20 GB/s per
	// direction per GPU pair, effective ~35 GB/s for collective patterns.
	NVLinkV1 = Link{Name: "NVLink", Bandwidth: 35 * GBps, Latency: 2 * time.Microsecond}

	// NFSLink models access to the shared NFS volume (backed by the
	// datacenter network with protocol overhead).
	NFSLink = Link{Name: "NFS", Bandwidth: 90 * MBps, Latency: 300 * time.Microsecond}
)

// TransferTime returns the time to move n bytes across the link in a
// single stream: latency + n/bandwidth.
func (l Link) TransferTime(n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	secs := float64(n) / float64(l.Bandwidth)
	return l.Latency + time.Duration(secs*float64(time.Second))
}

// String implements fmt.Stringer.
func (l Link) String() string {
	return fmt.Sprintf("%s(%.1fMB/s,%v)", l.Name, float64(l.Bandwidth)/1e6, l.Latency)
}

// SharedLink is a link whose bandwidth is divided among concurrent
// streams. Transfer durations are realized as sleeps on the virtual clock,
// with the fair share recomputed per transfer based on the number of
// streams active when the transfer starts. This first-order contention
// model is sufficient for the platform-overhead experiments, where what
// matters is that helper traffic (logs, status, checkpoints) steals
// bandwidth from training-data streaming.
type SharedLink struct {
	link Link
	clk  clock.Clock

	mu     sync.Mutex
	active int
}

// NewSharedLink wraps link with contention accounting on clk.
func NewSharedLink(link Link, clk clock.Clock) *SharedLink {
	return &SharedLink{link: link, clk: clk}
}

// Active reports the number of in-flight transfers.
func (s *SharedLink) Active() int { //lint:allow deadexport test-observation point: TestSharedLinkContention counts in-flight transfers
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Transfer blocks (in virtual time) for the duration needed to move n
// bytes given the contention level at start.
func (s *SharedLink) Transfer(n int64) {
	s.clk.Sleep(s.TransferStart(n))
	s.TransferDone()
}

// TransferStart registers a new stream and returns the modeled duration
// for n bytes at the resulting contention level. Callers must pair it with
// TransferDone. Most callers want Transfer.
func (s *SharedLink) TransferStart(n int64) time.Duration {
	s.mu.Lock()
	s.active++
	share := float64(s.active)
	s.mu.Unlock()
	if n < 0 {
		n = 0
	}
	secs := float64(n) * share / float64(s.link.Bandwidth)
	return s.link.Latency + time.Duration(secs*float64(time.Second))
}

// TransferDone marks a stream started with TransferStart as finished.
func (s *SharedLink) TransferDone() {
	s.mu.Lock()
	if s.active > 0 {
		s.active--
	}
	s.mu.Unlock()
}

// AllReduceTime models a ring all-reduce of gradBytes across n workers
// connected by the link: each worker sends and receives 2*(n-1)/n of the
// buffer, in 2*(n-1) latency-bound steps. For n <= 1 it returns zero (no
// synchronization needed).
func AllReduceTime(l Link, n int, gradBytes int64) time.Duration {
	if n <= 1 || gradBytes <= 0 {
		return 0
	}
	steps := 2 * (n - 1)
	perStepBytes := float64(gradBytes) / float64(n)
	wire := float64(steps) * perStepBytes / float64(l.Bandwidth)
	return time.Duration(wire*float64(time.Second)) + time.Duration(steps)*l.Latency
}

// ParameterServerTime models a push/pull exchange of gradBytes between n
// workers and a central parameter server over link l: the server link is
// the bottleneck, carrying n pushes and n pulls serialized.
func ParameterServerTime(l Link, n int, gradBytes int64) time.Duration {
	if n <= 0 || gradBytes <= 0 {
		return 0
	}
	wire := 2 * float64(n) * float64(gradBytes) / float64(l.Bandwidth)
	return time.Duration(wire*float64(time.Second)) + 2*l.Latency
}
