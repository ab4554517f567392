// Command bench is the repository's wall-clock benchmark: four workloads
// over the whole platform and its metadata plane, end-to-end metrics from
// untraced runs, per-layer metrics from traced ones. See README.md.
//
//	go run ./bench                                   every workload, untraced then traced
//	go run ./bench -workload meta-write -seed 7 -seconds 20 -trace 0
//	go run ./bench -repeats 5 -out a.json            five untraced runs per workload
//	go run ./bench -compare a.json b.json
//	go run ./bench -calibrate a.json                 rewrite BENCHMARK.json with bounds calibrated from a.json
//	go run ./bench -repeats 5 -calibrate             the same, running the repeats first
//
// The benchmark drives the system only through its public functions and
// lives entirely in this directory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkPath is the driver's declaration of this benchmark, at the
// root of the repository, which is where the benchmark is run from. It is
// the one home of the regression bounds.
const benchmarkPath = "BENCHMARK.json"

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	out       string
	spans     string
	full      bool
	compare   bool
	repeats   int
	calibrate bool
	args      []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs (job mix, op scripts, fault order)")
	flag.IntVar(&o.seconds, "seconds", referenceSeconds, "scales the fixed work counts; at 20 a timed phase lasts 14-31 s on the seed commit")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end ones")
	flag.StringVar(&o.out, "out", "", "write the result JSON here")
	flag.StringVar(&o.spans, "spans", "", "write a traced run's harness spans here (single workload)")
	flag.BoolVar(&o.full, "full", false, "print the whole result, not the driver's four keys, as the last line (what the all-workloads parent reads)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.IntVar(&o.repeats, "repeats", 1, "all workloads: untraced runs per workload, seeds seed..seed+repeats-1")
	flag.BoolVar(&o.calibrate, "calibrate", false, "rewrite BENCHMARK.json with bounds calibrated from a result file (-calibrate a.json) or from this invocation's repeats")
	flag.Parse()
	o.args = flag.Args()
	code, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// run dispatches on the options and returns the exit code: 0 for a
// correct run or an all-ok comparison, 1 for a failed check or a
// regression, 2 (with the error) when the benchmark itself could not run.
func run(o options, stdout io.Writer) (int, error) {
	switch {
	case o.compare:
		if len(o.args) != 2 {
			return 2, fmt.Errorf("-compare needs two result files")
		}
		ok, err := compare(stdout, o.args[0], o.args[1])
		if err != nil {
			return 2, err
		}
		return exitCode(ok), nil
	case o.calibrate && len(o.args) == 1:
		file, err := readResultFile(o.args[0])
		if err == nil {
			err = calibrate(stdout, file)
		}
		if err != nil {
			return 2, err
		}
		return 0, nil
	case o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.repeats < 1:
		return 2, fmt.Errorf("-seconds and -repeats must be at least 1 and -trace 0 or 1")
	case o.workload != "":
		res, err := runWorkload(runConfig{workload: o.workload, seed: o.seed, seconds: o.seconds,
			traced: o.trace == 1, spanPath: o.spans}, stdout)
		if err != nil {
			return 2, err
		}
		return finish(stdout, res, o.out, o.full)
	default:
		return runAll(stdout, o)
	}
}

func exitCode(ok bool) int {
	if ok {
		return 0
	}
	return 1
}

// finish prints the run's last line and turns an incorrect run into a
// non-zero exit.
func finish(stdout io.Writer, res *runResult, out string, full bool) (int, error) {
	if out != "" {
		if err := writeJSON(out, resultFile{Runs: []*runResult{res}}); err != nil {
			return 2, err
		}
	}
	var last any = res.contract()
	if full {
		last = res
	}
	line, err := json.Marshal(last)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return exitCode(res.Correct), nil
}

// runAll runs every workload in a fresh child process each (so peak RSS,
// CPU and allocations belong to one workload): `repeats` untraced runs
// and one traced run per workload.
func runAll(stdout io.Writer, o options) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 2, err
	}
	var file resultFile
	allCorrect := true
	for _, wl := range workloadDefs {
		var untracedWall float64
		for i := 0; i <= o.repeats; i++ {
			traced := i == o.repeats
			seed := o.seed + int64(i)
			if traced {
				seed = o.seed // the traced run repeats the first untraced one's inputs
			}
			res, err := runChild(stdout, self, wl.Name, seed, o.seconds, traced)
			if err != nil {
				return 2, fmt.Errorf("%s: %w", wl.Name, err)
			}
			allCorrect = allCorrect && res.Correct
			file.Runs = append(file.Runs, res)
			switch {
			case i == 0:
				untracedWall = res.TimedWall
			case traced:
				fmt.Fprintf(stdout, "%s: traced timed phase %.2f s, untraced %.2f s on the same seed: overhead %+.3f\n\n",
					wl.Name, res.TimedWall, untracedWall, res.TimedWall/untracedWall-1)
			}
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, file); err != nil {
			return 2, err
		}
	}
	if o.calibrate {
		if err := calibrate(stdout, &file); err != nil {
			return 2, err
		}
	}
	return exitCode(allCorrect), nil
}

// runChild re-executes this binary for one workload run, passes its
// report through, and decodes the full result from its last line.
func runChild(stdout io.Writer, self, workload string, seed int64, seconds int, traced bool) (*runResult, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace, "-full")
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, os.Stderr
	runErr := cmd.Run() // an incorrect run exits 1 but still reports
	all := bytes.TrimRight(buf.Bytes(), "\n")
	report, last := []byte(nil), all
	if i := bytes.LastIndexByte(all, '\n'); i >= 0 {
		report, last = all[:i+1], all[i+1:]
	}
	var res runResult
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("child reported no result (%v): %s", runErr, last)
	}
	stdout.Write(report)
	fmt.Fprintln(stdout)
	return &res, nil
}
