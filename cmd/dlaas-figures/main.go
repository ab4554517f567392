// Command dlaas-figures regenerates the paper's evaluation tables.
//
// Usage:
//
//	dlaas-figures -experiment fig2      # DLaaS vs bare metal (K80)
//	dlaas-figures -experiment fig3      # DLaaS vs NVIDIA DGX-1 (P100)
//	dlaas-figures -experiment fig4      # component crash-recovery times
//	dlaas-figures -experiment all       # everything
//	dlaas-figures -experiment fig4 -samples 5 -seed 7
//
// Figs. 2-3 evaluate the analytic performance model directly; Fig. 4
// boots the full simulated platform, trains a victim job, and
// crash-injects every component. All reported durations are cluster
// (virtual) time.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	experiment := flag.String("experiment", "all", "fig2 | fig3 | fig4 | all")
	samples := flag.Int("samples", 3, "crash/recovery samples per component (fig4)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	switch *experiment {
	case "fig2", "fig3", "fig4", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}

	if *experiment == "fig2" || *experiment == "all" {
		fmt.Println("Fig. 2 — Performance overhead of DLaaS vs. IBM Cloud bare metal")
		fmt.Println("(images/sec for training; Caffe v1.0 and TensorFlow v1.5; PCIe K80)")
		fmt.Println()
		fmt.Print(experiments.FormatFig2(experiments.Fig2(uint64(*seed))))
		fmt.Println()
	}
	if *experiment == "fig3" || *experiment == "all" {
		fmt.Println("Fig. 3 — Performance overhead of DLaaS vs. NVIDIA DGX-1")
		fmt.Println("(TensorFlow HPM benchmarks; PCIe P100 vs NVLink SXM2 P100)")
		fmt.Println()
		fmt.Print(experiments.FormatFig3(experiments.Fig3(uint64(*seed))))
		fmt.Println()
	}
	if *experiment == "fig4" || *experiment == "all" {
		fmt.Println("Fig. 4 — Time taken to recover from crash failures, by component")
		fmt.Printf("(full-platform chaos run; %d samples per component; virtual time)\n", *samples)
		fmt.Println()
		rows, err := experiments.Fig4(experiments.Fig4Options{
			SamplesPerComponent: *samples,
			Seed:                *seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig4 failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiments.FormatFig4(rows))
		fmt.Println()
	}
}
