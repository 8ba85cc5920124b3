// Package experiments contains one runner per table and figure of the
// paper's evaluation, reproducing the same rows/series on the simulated
// substrate. Each experiment is deterministic for a given seed and
// returns a plain-text table plus headline observations; cmd/alphawan-sim
// runs them by id, the checked-in goldens pin every table and note at seed
// 1, and the root BenchmarkExperiment times each one under go test -bench.
package experiments

import (
	"fmt"
	"sort"

	"github.com/alphawan/alphawan/internal/tabulate"
)

// Result is one experiment's output.
type Result struct {
	Table *tabulate.Table
	// Notes carries the headline observations — the claims to compare
	// against the paper (EXPERIMENTS.md is generated from these).
	Notes []string
	// Sidecar carries wall-clock measurements and other host-dependent
	// observations. Everything in Table and Notes is byte-identical per
	// seed; anything that depends on the machine or the moment goes
	// here, clearly delimited, and the determinism tests ignore it.
	Sidecar []string
	// Devices is the total number of simulated end devices, when the
	// experiment tracks it — the denominator of BenchmarkExperiment's
	// devices/sec.
	Devices int
}

// Note appends a formatted observation.
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Sidecarf appends a formatted wall-clock (non-deterministic) sidecar
// line.
func (r *Result) Sidecarf(format string, args ...any) {
	r.Sidecar = append(r.Sidecar, fmt.Sprintf(format, args...))
}

// Experiment is one table/figure reproduction.
type Experiment struct {
	// ID is the figure/table id, e.g. "fig02a", "table4".
	ID string
	// Title describes the experiment.
	Title string
	// Paper summarizes what the paper reports (the shape to reproduce).
	Paper string
	// Run executes the experiment.
	Run func(seed int64) *Result
}

var registry = map[string]Experiment{}

// register adds an experiment at init time.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns an experiment by id.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment sorted by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IDs returns the sorted experiment ids.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}
