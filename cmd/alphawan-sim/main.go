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
//	alphawan-sim -faults plan.json [-trace out.jsonl] [-seed 1]
//	alphawan-sim -faults plan.json -adaptive [-replan-interval 3] [-seed 1]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/events/sinks"
	"github.com/alphawan/alphawan/internal/experiments"
	"github.com/alphawan/alphawan/internal/faults"
	"github.com/alphawan/alphawan/internal/mac"
	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/runner"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, runs the selected
// mode writing to stdout/stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flag := flag.NewFlagSet("alphawan-sim", flag.ContinueOnError)
	flag.SetOutput(stderr)
	list := flag.Bool("list", false, "list experiment ids")
	run := flag.String("run", "", "experiment id to run, or 'all'")
	seed := flag.Int64("seed", 1, "simulation seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	parallel := flag.Int("parallel", 0,
		"worker cap for experiment cells: 0 = GOMAXPROCS (default), 1 = serial")
	trace := flag.String("trace", "",
		"write a packet-lifecycle JSONL trace of the built-in two-operator scenario to this file")
	faultsPlan := flag.String("faults", "",
		"inject the fault plan (JSON, see examples/faultplans) into the built-in scenario and report invariants")
	adaptive := flag.Bool("adaptive", false,
		"with -faults: run the planned two-gateway-per-operator scenario with the closed replanning loop attached (episode times become relative to traffic start)")
	replanInterval := flag.Float64("replan-interval", 3,
		"with -adaptive: control-loop tick interval in seconds")
	progress := flag.Bool("progress", false,
		"with -trace: print periodic run-summary counters to stderr")
	macFlag := flag.String("mac", "pure",
		"with -trace: MAC strategy of the built-in scenario (pure|slotted|capture)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	if err := flag.Parse(args); err != nil {
		return 2
	}

	if *parallel > 0 {
		runner.SetMaxWorkers(*parallel)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "alphawan-sim: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "alphawan-sim: %v\n", err)
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "alphawan-sim: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "alphawan-sim: %v\n", err)
			}
			f.Close()
		}()
	}

	switch {
	case *faultsPlan != "" && *adaptive:
		return runAdaptiveChaos(stdout, stderr, *faultsPlan, *seed, *replanInterval, *progress)
	case *faultsPlan != "":
		return runChaos(stdout, stderr, *faultsPlan, *trace, *seed, *progress)
	case *trace != "":
		kind, err := mac.ParseKind(*macFlag)
		if err != nil {
			fmt.Fprintf(stderr, "alphawan-sim: %v\n", err)
			return 1
		}
		return runTrace(stdout, stderr, *trace, *seed, kind, *progress)
	case *list:
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s  %s\n", e.ID, e.Title)
		}
	case *run == "all":
		for _, e := range experiments.All() {
			runOne(stdout, e, *seed, *csv)
		}
	case *run != "":
		e, ok := experiments.Get(*run)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; try -list\n", *run)
			return 1
		}
		runOne(stdout, e, *seed, *csv)
	default:
		flag.Usage()
		return 2
	}
	return 0
}

// runTrace runs the built-in two-operator coexistence scenario under the
// chosen MAC strategy with the packet-lifecycle tracer attached and
// prints the final loss breakdown.
func runTrace(stdout, stderr io.Writer, path string, seed int64, kind mac.Kind, progress bool) int {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "alphawan-sim: %v\n", err)
		return 1
	}
	w := bufio.NewWriter(f)
	var prog io.Writer
	if progress {
		prog = stderr
	}
	n, tr := sinks.RunDemoMAC(seed, kind, w, prog)
	if err := tr.Err(); err == nil {
		err = w.Flush()
	} else {
		w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(stderr, "alphawan-sim: trace write: %v\n", err)
		return 1
	}
	tot := n.Col.Total()
	fmt.Fprintf(stdout, "trace: %d records -> %s\n", tr.Records(), path)
	fmt.Fprintf(stdout, "sent=%d received=%d PRR=%.1f%%\n", tot.Sent, tot.Received, 100*tot.PRR())
	for c := metrics.DecoderContentionIntra; c <= metrics.Others; c++ {
		fmt.Fprintf(stdout, "  lost to %-26s %d\n", c.String()+":", tot.Losses[c])
	}
	return 0
}

// runChaos runs the built-in scenario with a fault plan injected,
// optionally tracing, and prints the episode schedule, the injector's
// intervention counters, the final loss breakdown, and the invariant
// verdict. A run with invariant violations exits non-zero.
func runChaos(stdout, stderr io.Writer, planPath, tracePath string, seed int64, progress bool) int {
	plan, err := faults.LoadPlan(planPath)
	if err != nil {
		fmt.Fprintf(stderr, "alphawan-sim: %v\n", err)
		return 1
	}

	var w io.Writer
	var f *os.File
	var bw *bufio.Writer
	if tracePath != "" {
		f, err = os.Create(tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "alphawan-sim: %v\n", err)
			return 1
		}
		bw = bufio.NewWriter(f)
		w = bw
	}
	var prog io.Writer
	if progress {
		prog = stderr
	}

	n, tr, inj, inv := sinks.RunChaosDemo(seed, plan, w, prog)

	if bw != nil {
		if err := tr.Err(); err == nil {
			err = bw.Flush()
		} else {
			bw.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "alphawan-sim: trace write: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d records -> %s\n", tr.Records(), tracePath)
	}

	fmt.Fprintf(stdout, "fault plan: %s (%d episodes)\n", planPath, len(plan.Episodes))
	for i := range plan.Episodes {
		fmt.Fprintf(stdout, "  %s\n", &plan.Episodes[i])
	}
	st := inj.Stats()
	fmt.Fprintf(stdout, "injected: backhaul drop=%d dup=%d reorder=%d delayed=%d; commands drop=%d delayed=%d\n",
		st.BackhaulDropped, st.BackhaulDuplicated, st.BackhaulReordered, st.BackhaulDelayed,
		st.CommandsDropped, st.CommandsDelayed)

	tot := n.Col.Total()
	fmt.Fprintf(stdout, "sent=%d received=%d PRR=%.1f%%\n", tot.Sent, tot.Received, 100*tot.PRR())
	for c := metrics.DecoderContentionIntra; c <= metrics.Others; c++ {
		fmt.Fprintf(stdout, "  lost to %-26s %d\n", c.String()+":", tot.Losses[c])
	}

	violations := inv.Finish()
	if len(violations) == 0 {
		fmt.Fprintf(stdout, "invariants: all held (%d transmissions checked)\n", inv.Started())
		return 0
	}
	fmt.Fprintf(stdout, "invariants: %d VIOLATIONS\n", len(violations))
	for _, v := range violations {
		fmt.Fprintf(stdout, "  %s\n", v)
	}
	return 1
}

// runAdaptiveChaos runs the planned two-gateway-per-operator scenario
// with the fault plan injected and the closed replanning loop attached,
// then prints the episode schedule, each controller's replan record,
// the injector's counters, the final loss breakdown, and the invariant
// verdict (plan-swap safety included). A run with invariant violations
// exits non-zero.
func runAdaptiveChaos(stdout, stderr io.Writer, planPath string, seed int64, intervalS float64, progress bool) int {
	plan, err := faults.LoadPlan(planPath)
	if err != nil {
		fmt.Fprintf(stderr, "alphawan-sim: %v\n", err)
		return 1
	}
	interval := des.Time(intervalS * float64(des.Second))
	if interval <= 0 {
		fmt.Fprintf(stderr, "alphawan-sim: -replan-interval must be positive\n")
		return 1
	}
	var prog io.Writer
	if progress {
		prog = stderr
	}

	n, inj, inv, ctrls := sinks.RunAdaptiveDemo(seed, plan, interval, prog)

	fmt.Fprintf(stdout, "fault plan: %s (%d episodes, shifted to traffic start)\n", planPath, len(plan.Episodes))
	for i := range plan.Episodes {
		fmt.Fprintf(stdout, "  %s\n", &plan.Episodes[i])
	}
	for i, ctrl := range ctrls {
		r, a, p := ctrl.Replans()
		fmt.Fprintf(stdout, "operator %d: %d replans, %d adopted, %d genes pushed\n", i, r, a, p)
	}
	st := inj.Stats()
	fmt.Fprintf(stdout, "injected: backhaul drop=%d dup=%d reorder=%d delayed=%d; commands drop=%d delayed=%d\n",
		st.BackhaulDropped, st.BackhaulDuplicated, st.BackhaulReordered, st.BackhaulDelayed,
		st.CommandsDropped, st.CommandsDelayed)

	tot := n.Col.Total()
	fmt.Fprintf(stdout, "sent=%d received=%d PRR=%.1f%%\n", tot.Sent, tot.Received, 100*tot.PRR())
	for c := metrics.DecoderContentionIntra; c <= metrics.Others; c++ {
		fmt.Fprintf(stdout, "  lost to %-26s %d\n", c.String()+":", tot.Losses[c])
	}

	violations := inv.Finish()
	if len(violations) == 0 {
		fmt.Fprintf(stdout, "invariants: all held (%d transmissions checked)\n", inv.Started())
		return 0
	}
	fmt.Fprintf(stdout, "invariants: %d VIOLATIONS\n", len(violations))
	for _, v := range violations {
		fmt.Fprintf(stdout, "  %s\n", v)
	}
	return 1
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
