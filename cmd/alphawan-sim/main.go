// Command alphawan-sim runs the paper-reproduction experiments by id and
// prints their tables, or traces the built-in coexistence scenario's
// packet lifecycle as JSONL.
//
// Usage:
//
//	alphawan-sim -list
//	alphawan-sim -run fig02a [-seed 1] [-csv]
//	alphawan-sim -run all [-parallel 8]
//	alphawan-sim -trace out.jsonl [-seed 1] [-progress] [-mac pure|slotted|capture]
//	alphawan-sim -faults plan.json [-adaptive [-replan-interval 3]] [-trace out.jsonl] [-mac ...] [-progress] [-seed 1]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/experiments"
	"github.com/alphawan/alphawan/internal/faults"
	"github.com/alphawan/alphawan/internal/mac"
	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, runs the selected
// mode writing to stdout/stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("alphawan-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiment ids")
	runID := fs.String("run", "", "experiment id to run, or 'all'")
	seed := fs.Int64("seed", 1, "simulation seed")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	parallel := fs.Int("parallel", 0,
		"worker cap for experiment cells: 0 = GOMAXPROCS (default), 1 = serial")
	trace := fs.String("trace", "",
		"write a packet-lifecycle JSONL trace of the built-in two-operator scenario to this file")
	faultsPlan := fs.String("faults", "",
		"inject the fault plan (JSON, see examples/faultplans) into the built-in scenario and report invariants")
	adaptive := fs.Bool("adaptive", false,
		"with -faults: run the planned two-gateway-per-operator scenario with the closed replanning loop attached (episode times become relative to traffic start)")
	replanInterval := fs.Float64("replan-interval", 3,
		"with -adaptive: control-loop tick interval in seconds")
	progress := fs.Bool("progress", false,
		"with -trace or -faults: print periodic run-summary counters to stderr")
	macFlag := fs.String("mac", "pure",
		"with -trace or -faults: MAC strategy of the built-in scenario (pure|slotted|capture)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken at exit to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintf(stderr, "alphawan-sim: %s\n", msg)
		fs.Usage()
		return 2
	}
	if *adaptive && *faultsPlan == "" {
		return usage("-adaptive needs -faults")
	}
	// Checked as a float, so NaN never becomes a des.Time; below one tick
	// the interval would round to zero.
	replanUs := *replanInterval * float64(des.Second)
	if !(replanUs >= 1) || math.IsInf(replanUs, 0) {
		return usage("-replan-interval must be a positive number of seconds")
	}

	if *parallel > 0 {
		runner.SetMaxWorkers(*parallel)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(stderr, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(stderr, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(stderr, err)
			}
			f.Close()
		}()
	}

	switch {
	case *faultsPlan != "" || *trace != "":
		d := scenario.Demo{Seed: *seed}
		var err error
		if d.MAC, err = mac.ParseKind(*macFlag); err != nil {
			return fail(stderr, err)
		}
		if *faultsPlan != "" {
			if d.Faults, err = faults.LoadPlan(*faultsPlan); err != nil {
				return fail(stderr, err)
			}
		}
		if *adaptive {
			d.ReplanInterval = des.Time(replanUs)
		}
		if *progress {
			d.Progress = stderr
		}
		return runDemo(stdout, stderr, d, *trace, *faultsPlan)
	case *list:
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s  %s\n", e.ID, e.Title)
		}
	case *runID == "all":
		for _, e := range experiments.All() {
			runOne(stdout, e, *seed, *csv)
		}
	case *runID != "":
		e, ok := experiments.Get(*runID)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; try -list\n", *runID)
			return 1
		}
		runOne(stdout, e, *seed, *csv)
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// fail reports err and returns the failure exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "alphawan-sim: %v\n", err)
	return 1
}

// runDemo runs the built-in two-operator scenario as the flags shaped it
// and prints one section per thing asked for: the trace's record count,
// the fault plan's episode schedule, each controller's replan record, the
// injector's intervention counters, then the final loss breakdown and
// the invariant verdict. A run with invariant violations returns 1.
func runDemo(stdout, stderr io.Writer, d scenario.Demo, tracePath, planPath string) int {
	var f *os.File
	var bw *bufio.Writer
	if tracePath != "" {
		var err error
		if f, err = os.Create(tracePath); err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		bw = bufio.NewWriter(f)
		d.Trace = bw
	}

	out, err := d.Run()
	if err != nil {
		return fail(stderr, err)
	}

	if tr := out.Tracer; tr != nil {
		err := tr.Err()
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(stderr, fmt.Errorf("trace write: %w", err))
		}
		fmt.Fprintf(stdout, "trace: %d records -> %s\n", tr.Records(), tracePath)
	}
	if d.Faults != nil {
		shift := ""
		if out.Controllers != nil {
			shift = ", shifted to traffic start"
		}
		fmt.Fprintf(stdout, "fault plan: %s (%d episodes%s)\n", planPath, len(d.Faults.Episodes), shift)
		for i := range d.Faults.Episodes {
			fmt.Fprintf(stdout, "  %s\n", &d.Faults.Episodes[i])
		}
	}
	for i, ctrl := range out.Controllers {
		r, a, p := ctrl.Replans()
		fmt.Fprintf(stdout, "operator %d: %d replans, %d adopted, %d genes pushed\n", i, r, a, p)
	}
	if out.Injector != nil {
		st := out.Injector.Stats()
		fmt.Fprintf(stdout, "injected: backhaul drop=%d dup=%d reorder=%d delayed=%d; commands drop=%d delayed=%d\n",
			st.BackhaulDropped, st.BackhaulDuplicated, st.BackhaulReordered, st.BackhaulDelayed,
			st.CommandsDropped, st.CommandsDelayed)
	}

	tot := out.Net.Col.Total()
	fmt.Fprintf(stdout, "sent=%d received=%d PRR=%.1f%%\n", tot.Sent, tot.Received, 100*tot.PRR())
	for c := metrics.DecoderContentionIntra; c <= metrics.Others; c++ {
		fmt.Fprintf(stdout, "  lost to %-26s %d\n", c.String()+":", tot.Losses[c])
	}

	if inv := out.Invariants; inv != nil {
		violations := inv.Finish()
		if len(violations) > 0 {
			fmt.Fprintf(stdout, "invariants: %d VIOLATIONS\n", len(violations))
			for _, v := range violations {
				fmt.Fprintf(stdout, "  %s\n", v)
			}
			return 1
		}
		fmt.Fprintf(stdout, "invariants: all held (%d transmissions checked)\n", inv.Started())
	}
	return 0
}

func runOne(stdout io.Writer, e experiments.Experiment, seed int64, csv bool) {
	fmt.Fprintf(stdout, "# %s — %s\n", e.ID, e.Title)
	fmt.Fprintf(stdout, "# paper: %s\n", e.Paper)
	res := e.Run(seed)
	if csv {
		fmt.Fprint(stdout, res.Table.CSV())
	} else {
		fmt.Fprint(stdout, res.Table.String())
	}
	for _, n := range res.Notes {
		fmt.Fprintf(stdout, "-> %s\n", n)
	}
	// Sidecar lines are wall-clock/host-bound observations: informative,
	// but excluded from the deterministic, seed-reproducible output above.
	for _, s := range res.Sidecar {
		fmt.Fprintf(stdout, "~> %s\n", s)
	}
	fmt.Fprintln(stdout)
}
