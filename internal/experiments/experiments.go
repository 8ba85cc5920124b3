// Package experiments contains one runner per table and figure of the
// paper's evaluation, reproducing the same rows/series on the simulated
// substrate. Each experiment is deterministic for a given seed and
// returns a plain-text table plus headline observations; cmd/alphawan-sim
// runs them by id, the checked-in goldens pin every table and note at seed
// 1, and the root BenchmarkExperiment times each one under go test -bench.
package experiments

import (
	"fmt"

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

// all lists every experiment once, in id order; each is declared next to
// its runner.
var all = []Experiment{
	ablOverlap, ablPrefilter, ablSeeding, ablTrafficWin,
	city1M, citySmoke,
	figAdaptive, figMac, figResilience,
	fig02a, fig02b, fig03ab, fig03cd, fig03ef, fig04a, fig04b, fig05a, fig05b,
	fig06, fig07, fig08, fig12a, fig12b, fig12c, fig12de,
	fig13, fig14, fig15, fig16, fig17, fig18, fig21,
	table1, table4,
}

// Get returns an experiment by id.
func Get(id string) (Experiment, bool) {
	for _, e := range all {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// All returns every experiment sorted by id.
func All() []Experiment { return append([]Experiment(nil), all...) }
