package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
)

func TestTransferTimeLinear(t *testing.T) {
	l := Link{Name: "test", Bandwidth: 100 * MBps, Latency: time.Millisecond}
	got := l.TransferTime(100 * 1000 * 1000) // 100 MB at 100 MB/s = 1s
	want := time.Second + time.Millisecond
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
}

func TestTransferTimeZeroAndNegative(t *testing.T) {
	l := Ethernet1G
	if got := l.TransferTime(0); got != l.Latency {
		t.Fatalf("zero bytes = %v, want latency %v", got, l.Latency)
	}
	if got := l.TransferTime(-5); got != l.Latency {
		t.Fatalf("negative bytes = %v, want latency %v", got, l.Latency)
	}
}

func TestCatalogOrdering(t *testing.T) {
	// The performance model depends on this strict ordering of fabrics.
	if !(Ethernet1G.Bandwidth < PCIe3x16.Bandwidth) {
		t.Error("1GbE should be slower than PCIe3")
	}
	if !(PCIe3x16.Bandwidth < NVLinkV1.Bandwidth) {
		t.Error("PCIe3 should be slower than NVLink")
	}
}

func TestSharedLinkContention(t *testing.T) {
	clk := clock.NewManual()
	defer clk.Close()
	s := NewSharedLink(Link{Name: "t", Bandwidth: 100 * MBps, Latency: 0}, clk)

	solo := s.TransferStart(100 * 1000 * 1000)
	if solo != time.Second {
		t.Fatalf("solo transfer = %v, want 1s", solo)
	}
	// Second concurrent stream sees half the bandwidth.
	dual := s.TransferStart(100 * 1000 * 1000)
	if dual != 2*time.Second {
		t.Fatalf("contended transfer = %v, want 2s", dual)
	}
	if s.Active() != 2 {
		t.Fatalf("active = %d, want 2", s.Active())
	}
	s.TransferDone()
	s.TransferDone()
	if s.Active() != 0 {
		t.Fatalf("active after done = %d, want 0", s.Active())
	}
}

func TestSharedLinkTransferAdvancesClock(t *testing.T) {
	clk := clock.NewSim()
	defer clk.Close()
	s := NewSharedLink(Link{Name: "t", Bandwidth: 1 * MBps, Latency: 0}, clk)
	start := clk.Now()
	s.Transfer(5 * 1000 * 1000) // 5 MB at 1 MB/s = 5s virtual
	if got := clk.Since(start); got < 5*time.Second {
		t.Fatalf("virtual elapsed = %v, want >= 5s", got)
	}
}

func TestAllReduceTimeSingleWorkerFree(t *testing.T) {
	if got := AllReduceTime(PCIe3x16, 1, 1<<30); got != 0 {
		t.Fatalf("1-worker allreduce = %v, want 0", got)
	}
	if got := AllReduceTime(PCIe3x16, 4, 0); got != 0 {
		t.Fatalf("0-byte allreduce = %v, want 0", got)
	}
}

func TestAllReduceNVLinkBeatsPCIe(t *testing.T) {
	const vggGradients = 552 * 1000 * 1000 // ~138M params * 4B
	pcie := AllReduceTime(PCIe3x16, 2, vggGradients)
	nvlink := AllReduceTime(NVLinkV1, 2, vggGradients)
	if nvlink >= pcie {
		t.Fatalf("NVLink allreduce (%v) should beat PCIe (%v)", nvlink, pcie)
	}
	// The ratio should roughly track the bandwidth ratio (3.5x).
	ratio := float64(pcie) / float64(nvlink)
	if ratio < 2 || ratio > 5 {
		t.Fatalf("PCIe/NVLink ratio = %.2f, want within [2,5]", ratio)
	}
}

func TestParameterServerScalesWithWorkers(t *testing.T) {
	g := int64(100 * 1000 * 1000)
	t2 := ParameterServerTime(Ethernet1G, 2, g)
	t4 := ParameterServerTime(Ethernet1G, 4, g)
	if t4 <= t2 {
		t.Fatalf("PS time should grow with workers: 2->%v 4->%v", t2, t4)
	}
}

// Property: transfer time is monotone in byte count.
func TestQuickTransferMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return Ethernet1G.TransferTime(x) <= Ethernet1G.TransferTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: allreduce time is monotone in gradient size and never negative.
func TestQuickAllReduceMonotone(t *testing.T) {
	f := func(a, b uint32, n uint8) bool {
		workers := int(n%8) + 2
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		tx := AllReduceTime(PCIe3x16, workers, x)
		ty := AllReduceTime(PCIe3x16, workers, y)
		return tx >= 0 && tx <= ty
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
