// Command benchmark is the repository's performance gate: six named
// workloads over the simulator, the planner and the live UDP stack, each
// reporting the end-to-end metrics BENCHMARK.json bounds and, in a traced
// run, per-layer metrics gathered from outside the program. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(runConfig) (*report, error)
}

var workloads = []workload{
	{"node-city", runNodeCity},
	{"soa-city", runSoaCity},
	{"plan-cold", runPlanCold},
	{"plan-replan", runPlanReplan},
	{"live-steady", runLiveSteady},
	{"live-overload", runLiveOverload},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs a single workload in this process and prints its table and
// result line. It returns the process exit code.
func runOne(w *workload, cfg runConfig, traceDir string) int {
	defs, gated := endToEnd, true
	if cfg.tr != nil {
		defs, gated = perLayer, false
	}
	r, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	r.check(defs, gated)
	if err := cfg.tr.write(traceDir, r, cfg.seed); err != nil {
		r.problemf("%v", err)
	}

	fmt.Printf("workload %s  seed %d  seconds %g  traced %v\n", w.name, cfg.seed, cfg.seconds, cfg.tr != nil)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	fmt.Print(r.table(defs))
	for _, p := range r.problems {
		fmt.Println("FAILED CHECK: " + p)
	}

	line := resultLine{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{r.values[d.Name], d.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process and print its result line (default: the suite, one child process per workload)")
		seed     = flag.Int64("seed", 1, "workload seed; the program under test only sees inputs generated from it")
		seconds  = flag.Float64("seconds", 10, "timed seconds per workload run")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, CPU profile, trace-<workload>.json")
		traceDir = flag.String("tracedir", ".bench_build", "directory the trace files are written to")
		aa       = flag.Bool("aa", false, "suite only: run everything twice on the same seed and fail if a gated metric moves by more than its bound")
		jsonPath = flag.String("json", "", "suite only: also write the results to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *name == "" {
		os.Exit(runSuite(suiteOptions{
			seed: *seed, seconds: *seconds, trace: *trace != 0, aa: *aa,
			jsonPath: *jsonPath, traceDir: *traceDir,
		}))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds}
	if *trace != 0 {
		cfg.tr = newTracer()
	}
	os.Exit(runOne(w, cfg, *traceDir))
}
