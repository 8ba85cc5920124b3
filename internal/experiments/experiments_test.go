package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestRegistryComplete checks that All lists exactly the tables and
// figures DESIGN.md promises: none missing, none unlisted here.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig02a", "fig02b", "fig03ab", "fig03cd", "fig03ef",
		"fig04a", "fig04b", "fig05a", "fig05b", "fig06", "fig07", "fig08",
		"fig12a", "fig12b", "fig12c", "fig12de", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig21", "table1", "table4",
		"abl-prefilter", "abl-seeding", "abl-overlap", "abl-trafficwin",
		"city-1M", "city-smoke", "fig-adaptive", "fig-mac", "fig-resilience",
	}
	listed := map[string]bool{}
	for _, id := range want {
		listed[id] = true
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q missing from All", id)
		}
	}
	for _, e := range All() {
		if !listed[e.ID] {
			t.Errorf("experiment %q is in All but not in this test's list", e.ID)
		}
	}
}

func TestRegistryMetadata(t *testing.T) {
	list := All()
	for i, e := range list {
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %q has incomplete metadata", e.ID)
		}
		if i > 0 && e.ID <= list[i-1].ID {
			t.Errorf("All must be in strictly increasing id order: %q follows %q", e.ID, list[i-1].ID)
		}
	}
	if _, ok := Get("nonsense"); ok {
		t.Error("unknown id must not resolve")
	}
}

// seed1 memoizes e.Run(1) per experiment and profile, so TestGolden and
// the shape tests pay for each figure once per test binary. Readers must
// not modify the Result they get.
var seed1 = map[string]*Result{}

// runSeed1 returns e.Run(1) under the installed profile, running it on
// the first request only.
func runSeed1(e Experiment) *Result {
	key := fmt.Sprintf("%s %+v", e.ID, prof)
	res, ok := seed1[key]
	if !ok {
		res = e.Run(1)
		seed1[key] = res
	}
	return res
}

// noWarnings fails the test if an experiment's notes contain a WARNING —
// the runners flag shape mismatches with the paper that way.
func noWarnings(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("missing experiment %s", id)
	}
	res := runSeed1(e)
	if res.Table.Rows() == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for _, n := range res.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("%s: %s", id, n)
		}
	}
	return res
}

func TestFig02aShape(t *testing.T) {
	noWarnings(t, "fig02a")
}

func TestFig02bShape(t *testing.T) {
	noWarnings(t, "fig02b")
}

func TestFig03Shapes(t *testing.T) {
	res := noWarnings(t, "fig03ef")
	ok := false
	for _, n := range res.Notes {
		if strings.Contains(n, "sum 16") {
			ok = true
		}
	}
	if !ok {
		t.Error("fig03ef must report the 16-packet aggregate budget")
	}
}

func TestFig05Shapes(t *testing.T) {
	noWarnings(t, "fig05a")
	noWarnings(t, "fig05b")
}

func TestFig07Shape(t *testing.T) {
	noWarnings(t, "fig07")
}

func TestFig18AndTable4(t *testing.T) {
	noWarnings(t, "fig18")
	noWarnings(t, "table4")
}

func TestTable1Survey(t *testing.T) {
	noWarnings(t, "table1")
}

// TestCityShapes runs both city-scale experiments on the shrunken
// profile (the full-profile sweep reaches a million devices) and checks
// that the sharded core actually shards and that the wall-clock
// observations land in the sidecar, not in the deterministic output.
func TestCityShapes(t *testing.T) {
	withProfile(t, smallProfile())
	for _, id := range []string{"city-1M", "city-smoke"} {
		res := noWarnings(t, id)
		if res.Devices == 0 {
			t.Errorf("%s: Result.Devices not reported", id)
		}
		if len(res.Sidecar) == 0 {
			t.Errorf("%s: expected wall-clock sidecar lines", id)
		}
		for _, s := range res.Sidecar {
			if !strings.Contains(s, "devices/sec") {
				t.Errorf("%s: sidecar line %q lacks a devices/sec figure", id, s)
			}
		}
	}
}

func TestAblationsRun(t *testing.T) {
	noWarnings(t, "abl-prefilter")
	noWarnings(t, "abl-overlap")
	noWarnings(t, "abl-trafficwin")
}

func TestFig06Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("ADR convergence run")
	}
	noWarnings(t, "fig06")
}

func TestFig12aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("planner sweep")
	}
	noWarnings(t, "fig12a")
}

func TestFig12deShape(t *testing.T) {
	if testing.Short() {
		t.Skip("coexistence sweep")
	}
	noWarnings(t, "fig12de")
}

func TestFig14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("adoption sweep")
	}
	noWarnings(t, "fig14")
}

func TestFig15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fairness sweep")
	}
	noWarnings(t, "fig15")
}

func TestFig16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("threshold sweep")
	}
	noWarnings(t, "fig16")
}

// TestDeterminism: the same seed reproduces identical tables for a
// representative fast experiment.
func TestDeterminism(t *testing.T) {
	e, _ := Get("fig02b")
	a := e.Run(7).Table.CSV()
	b := e.Run(7).Table.CSV()
	if a != b {
		t.Error("experiments must be deterministic per seed")
	}
}

// TestCSVExport sanity-checks the CSV path used by cmd/alphawan-sim.
func TestCSVExport(t *testing.T) {
	e, _ := Get("table4")
	csv := runSeed1(e).Table.CSV()
	if !strings.HasPrefix(csv, "manufacturer,") {
		t.Errorf("csv header wrong: %q", csv[:40])
	}
	if !strings.Contains(csv, "RAK7268CV2") {
		t.Error("csv rows missing")
	}
}
