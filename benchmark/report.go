package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef names one metric exactly as BENCHMARK.json does; a test keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse; 0 for per-layer metrics, which are not gated.
	Bound float64
}

// endToEnd lists the gated metrics. The driver wants every one of them
// from every workload, so each has one definition per pipeline (README,
// "End-to-end metrics"): the simulator pair counts transmissions, the
// planner pair devices planned, the live pair uplink frames.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"delivered_ratio", "ratio", "higher", 0.25},
	{"result_cost", "cost", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.20},
}

// cpuShareModules are the packages a CPU profile is folded into, in the
// order they are printed. "bench" is this harness (load generator and
// bookkeeping); anything left over lands in "other".
var cpuShareModules = []string{
	"des", "traffic", "node", "medium", "radio", "gateway", "netserver",
	"frame", "cmac", "metrics", "events", "phy", "soa", "cp", "evolve",
	"logparse", "udpfwd", "bench", "runtime.gc", "runtime", "syscall", "other",
}

// perLayer lists the ungated metrics of the traced run, "<module>.<metric>".
// A workload that rests a layer reports 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Live stack, spans and counters at the bridge/server seams.
		{"netserver.handle_ns", "ns", "lower", 0},
		{"netserver.dup_ratio", "ratio", "lower", 0},
		{"netserver.reject_ratio", "ratio", "lower", 0},
		{"wiring.note_ns", "ns", "lower", 0},
		{"wiring.downlink_ns", "ns", "lower", 0},
		{"wiring.downlink_p50_us", "us", "lower", 0},
		{"udpfwd.queue_wait_p50_us", "us", "lower", 0},
		{"udpfwd.queue_wait_p99_us", "us", "lower", 0},
		{"udpfwd.kernel_drop_ratio", "ratio", "lower", 0},
		{"udpfwd.overload_drop_ratio", "ratio", "lower", 0},
		{"udpfwd.fallback_ratio", "ratio", "lower", 0},
		{"udpfwd.parse_errors", "count", "lower", 0},
		{"udpfwd.downlink_ack_ratio", "ratio", "higher", 0},
		{"liveload.sched_lag_p99_us", "us", "lower", 0},
		{"liveload.offered_pps", "1/s", "higher", 0},
		{"liveload.p50_us.lo", "us", "lower", 0},
		{"liveload.p50_us.hi", "us", "lower", 0},
		{"liveload.p99_us.lo", "us", "lower", 0},
		{"liveload.p99_us.hi", "us", "lower", 0},
		{"liveload.p99_us.mid", "us", "lower", 0},
		// Node engine, from the bus topics and Radio.Stats().
		{"medium.lockons_per_tx", "ratio", "lower", 0},
		{"medium.deliveries_per_lockon", "ratio", "higher", 0},
		{"radio.decoder_drop_ratio", "ratio", "lower", 0},
		{"radio.foreign_ratio", "ratio", "lower", 0},
		// SoA engine.
		{"soa.build_s", "s", "lower", 0},
		{"soa.seal_s", "s", "lower", 0},
		{"soa.run_s", "s", "lower", 0},
		{"soa.cells", "count", "lower", 0},
		{"soa.bytes_per_device", "B", "lower", 0},
		{"soa.parallel_eff", "ratio", "higher", 0},
		// Planner.
		{"logparse.ns_per_row", "ns", "lower", 0},
		{"trafficest.ns_per_dev", "ns", "lower", 0},
		{"evolve.solve_s", "s", "lower", 0},
		{"evolve.generations", "count", "lower", 0},
		{"evolve.full_evals", "count", "lower", 0},
		{"evolve.rescore_ratio", "ratio", "higher", 0},
		{"evolve.parallel_eff", "ratio", "higher", 0},
		{"cp.evaluate_ns", "ns", "lower", 0},
		{"cp.rescore_ns", "ns", "lower", 0},
		{"cp.plan_cost", "cost", "lower", 0},
		{"adaptive.adopt_ratio", "ratio", "higher", 0},
		{"adaptive.diff_genes", "count", "lower", 0},
		// Whole process.
		{"runtime.allocs_per_op", "count", "lower", 0},
		{"runtime.gc_pause_ms", "ms", "lower", 0},
		{"trace.work_per_s", "1/s", "higher", 0},
	}
	for _, m := range cpuShareModules {
		defs = append(defs, metricDef{m + ".cpu_share", "ratio", "lower", 0})
	}
	return defs
}

// report is what one workload run produces.
type report struct {
	workload string
	// attempted and failed count operations: simulator packets (failed =
	// outcome unaccounted), plans (failed = Validate error), live frames
	// (failed = not delivered within the latency limit).
	attempted, failed int64
	// problems lists failed correctness checks; any entry makes the run
	// incorrect and the process exit non-zero.
	problems []string
	// values holds the metrics of this run: end-to-end names untraced,
	// per-layer names traced.
	values map[string]float64
	// samples keeps the per-repetition values behind a median, for the
	// spread column of the human table.
	samples map[string][]float64
	// notes are free-form human lines (sizes, counts, conservation sums).
	notes []string
}

func newReport(workload string) *report {
	return &report{
		workload: workload,
		values:   map[string]float64{},
		samples:  map[string][]float64{},
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setMedian stores the median of the per-repetition samples under name.
func (r *report) setMedian(name string, vs []float64) {
	r.samples[name] = vs
	r.values[name] = median(vs)
}

func (r *report) problemf(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

func (r *report) notef(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// check verifies that exactly the metrics of defs are present, filling
// absent per-layer metrics with 0 (a rested layer) and refusing a missing
// or zero end-to-end metric.
func (r *report) check(defs []metricDef, gated bool) {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
		v, ok := r.values[d.Name]
		switch {
		case !ok && gated:
			r.problemf("metric %s not reported", d.Name)
		case !ok:
			r.values[d.Name] = 0
		case gated && v == 0:
			r.problemf("metric %s is 0", d.Name)
		}
	}
	var extra []string
	for name := range r.values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		r.problemf("metrics not in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
}

// table renders the metrics of defs as the human table: name, unit,
// median, spread, n.
func (r *report) table(defs []metricDef) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-6s %16s %8s %3s\n", "metric", "unit", "median", "spread", "n")
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			continue
		}
		n, sp := 1, "-"
		if s := r.samples[d.Name]; len(s) > 0 {
			n = len(s)
			sp = fmt.Sprintf("%.1f%%", 100*spread(s))
		}
		fmt.Fprintf(&b, "%-28s %-6s %16.6g %8s %3d\n", d.Name, d.Unit, v, sp, n)
	}
	return b.String()
}
