package main

import "fmt"

// runConfig is what a workload gets: the seed its inputs derive from, how
// long to measure, and whether this is the traced run.
type runConfig struct {
	seed    int64
	seconds float64
	// tr is nil in the untraced run that yields the end-to-end metrics.
	tr *tracer
	// smoke shrinks every workload to test scale.
	smoke bool
}

// repeatFor drives a closed workload: an untimed warm-up repetition if
// warm, then timed ones until the next would overrun cfg.seconds of timed
// work, and never fewer than minReps — every reported value is a median
// over them. rep returns the repetition's timed seconds. In the traced run
// the CPU profile starts after the warm-up and is left running for the
// caller's stopProfile.
func repeatFor(cfg runConfig, warm bool, minReps int, rep func(i int, timed bool) (float64, error)) error {
	if warm {
		if _, err := rep(0, false); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := cfg.tr.startProfile(); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	spent, last := 0.0, 0.0
	for i := 1; i <= minReps || spent+last <= cfg.seconds; i++ {
		d, err := rep(i, true)
		if err != nil {
			return fmt.Errorf("repetition %d: %w", i, err)
		}
		spent, last = spent+d, d
	}
	return nil
}

// closedMetrics fills the end-to-end metrics of a closed workload from its
// timed repetitions: ops operations over walls seconds of wall-clock and
// cpus seconds of process CPU, latMs the latency samples.
func (r *report) closedMetrics(setups, walls, cpus, latMs []float64, ops int64, delivered, cost float64) {
	r.setMedian("setup_s", setups)
	r.set("work_per_s", float64(ops)/sum(walls))
	r.setMedian("latency_p50_ms", latMs)
	r.set("delivered_ratio", delivered)
	r.set("result_cost", cost)
	r.set("peak_rss_mb", peakRSSMB())
	r.set("cpu_us_per_op", 1e6*sum(cpus)/float64(ops))
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

func scale(vs []float64, k float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * k
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
