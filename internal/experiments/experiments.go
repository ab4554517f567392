// Package experiments regenerates every table and figure in the paper's
// evaluation section (Sec. IV): Fig. 2 (DLaaS vs bare-metal overhead on
// K80s), Fig. 3 (DLaaS PCIe P100 vs NVIDIA DGX-1), and Fig. 4
// (component crash-recovery times). The same code backs the root-level
// testing.B benchmarks and the cmd/dlaas-figures tool.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/gpu"
	"repro/internal/trainsim"
)

// Fig2Row is one line of the paper's Fig. 2 table.
type Fig2Row struct {
	Benchmark string
	Framework string
	GPUs      int
	// DiffPercent is the throughput loss of DLaaS vs bare metal.
	DiffPercent float64
	// Bare and DLaaS are absolute throughputs (images/sec), reported
	// for transparency (the paper reports only the difference).
	Bare  float64
	DLaaS float64
}

// fig2Configs mirrors the paper's Fig. 2 rows: VGG-16/Caffe and
// InceptionV3/TensorFlow on 1-4 PCIe K80 GPUs.
func fig2Configs() []struct {
	model     trainsim.ModelSpec
	framework trainsim.Framework
	gpus      []int
} {
	return []struct {
		model     trainsim.ModelSpec
		framework trainsim.Framework
		gpus      []int
	}{
		{trainsim.VGG16, trainsim.Caffe, []int{1, 2, 3, 4}},
		{trainsim.InceptionV3, trainsim.TensorFlow, []int{1, 2, 3, 4}},
	}
}

// Fig2 computes the DLaaS-vs-bare-metal overhead table. Both sides
// train the same benchmark on PCIe K80s with data streamed over 1GbE
// (as in the paper); the platform side adds container, helper, and
// interference overheads.
func Fig2(seed uint64) []Fig2Row {
	var rows []Fig2Row
	for _, cfg := range fig2Configs() {
		for _, n := range cfg.gpus {
			bare := trainsim.Config{
				Model:     cfg.model,
				Framework: cfg.framework,
				GPU:       gpu.K80,
				NumGPUs:   n,
				Overheads: trainsim.BareMetal(),
				Seed:      seed,
			}
			plat := bare
			plat.Overheads = trainsim.DLaaS()
			rows = append(rows, Fig2Row{
				Benchmark:   displayModel(cfg.model),
				Framework:   displayFramework(cfg.framework),
				GPUs:        n,
				DiffPercent: trainsim.OverheadPercent(bare, plat),
				Bare:        bare.Throughput(),
				DLaaS:       plat.Throughput(),
			})
		}
	}
	return rows
}

// Fig3Row is one line of the paper's Fig. 3 table.
type Fig3Row struct {
	Benchmark string
	Framework string
	GPUs      int
	GPUType   string
	// DiffPercent is the throughput loss of DLaaS (PCIe P100) vs the
	// DGX-1 (NVLink SXM2 P100).
	DiffPercent float64
	DGX         float64
	DLaaS       float64
}

// Fig3 computes the DLaaS-vs-DGX-1 table: TensorFlow HPM benchmarks on
// 1 and 2 P100s. The DGX-1 advantage combines higher SXM2 sustained
// clocks (single GPU) with NVLink gradient exchange (multi GPU), so the
// gap grows with GPU count and with model size.
func Fig3(seed uint64) []Fig3Row {
	models := []trainsim.ModelSpec{trainsim.InceptionV3, trainsim.ResNet50, trainsim.VGG16}
	var rows []Fig3Row
	for _, n := range []int{1, 2} {
		for _, m := range models {
			dgx := trainsim.Config{
				Model:     m,
				Framework: trainsim.TensorFlow,
				GPU:       gpu.P100SXM2,
				NumGPUs:   n,
				Overheads: trainsim.BareMetal(),
				Seed:      seed,
			}
			plat := trainsim.Config{
				Model:     m,
				Framework: trainsim.TensorFlow,
				GPU:       gpu.P100,
				NumGPUs:   n,
				Overheads: trainsim.DLaaS(),
				Seed:      seed,
			}
			rows = append(rows, Fig3Row{
				Benchmark:   displayModel(m),
				Framework:   "TensorFlow",
				GPUs:        n,
				GPUType:     "P100",
				DiffPercent: trainsim.OverheadPercent(dgx, plat),
				DGX:         dgx.Throughput(),
				DLaaS:       plat.Throughput(),
			})
		}
	}
	return rows
}

// Fig4Row is one line of the paper's Fig. 4 table.
type Fig4Row struct {
	Component string
	// Min and Max bound the observed recovery times, the "3-5s" format
	// the paper reports.
	Min time.Duration
	Max time.Duration
	// Samples holds the individual measurements.
	Samples []time.Duration
}

// FormatFig2 renders the table in the paper's layout.
func FormatFig2(rows []Fig2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-11s %7s %12s %10s %10s\n",
		"Benchmark", "Framework", "# GPUs", "Diff (%)", "Bare(i/s)", "DLaaS(i/s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-11s %7d %12.2f %10.1f %10.1f\n",
			r.Benchmark, r.Framework, r.GPUs, r.DiffPercent, r.Bare, r.DLaaS)
	}
	return b.String()
}

// FormatFig3 renders the table in the paper's layout.
func FormatFig3(rows []Fig3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-11s %7s %-8s %12s %10s %10s\n",
		"Benchmark", "Framework", "# GPUs", "GPU", "Diff (%)", "DGX(i/s)", "DLaaS(i/s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-11s %7d %-8s %12.2f %10.1f %10.1f\n",
			r.Benchmark, r.Framework, r.GPUs, r.GPUType, r.DiffPercent, r.DGX, r.DLaaS)
	}
	return b.String()
}

// FormatFig4 renders the recovery table in the paper's layout.
func FormatFig4(rows []Fig4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-22s\n", "Component", "Time to recover")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %.1f-%.1fs\n", r.Component, r.Min.Seconds(), r.Max.Seconds())
	}
	return b.String()
}

func displayModel(m trainsim.ModelSpec) string {
	switch m.Name {
	case "vgg16":
		return "VGG-16"
	case "resnet50":
		return "Resnet-50"
	case "inceptionv3":
		return "InceptionV3"
	default:
		return m.Name
	}
}

func displayFramework(f trainsim.Framework) string {
	switch f {
	case trainsim.Caffe:
		return "Caffe"
	case trainsim.TensorFlow:
		return "TensorFlow"
	default:
		return string(f)
	}
}
