package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current outputs")

// goldenSlow lists the experiments that take more than about a second at
// full scale; -short skips them.
var goldenSlow = map[string]bool{
	"fig04a": true, "fig04b": true, "fig12a": true, "fig12b": true, "fig12c": true,
	"fig13": true, "fig21": true, "fig-mac": true, "city-1M": true,
}

// TestGolden pins every registered experiment's table and notes at seed 1
// to the checked-in file testdata/golden/<id>.txt, byte for byte — the
// gate a behaviour-preserving refactor has to pass — and fails on any
// note containing WARNING, the runners' flag for a shape that misses the
// paper's. After an intentional output change, regenerate with
//
//	go test ./internal/experiments/ -run Golden -update
//
// and review the diff. A file in testdata/golden that no registered
// experiment owns fails too, so a deleted experiment takes its golden
// with it.
func TestGolden(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && goldenSlow[e.ID] {
				t.Skip("slow at full scale")
			}
			path := filepath.Join("testdata", "golden", e.ID+".txt")
			res := runSeed1(e)
			for _, n := range res.Notes {
				if strings.Contains(n, "WARNING") {
					t.Errorf("%s: %s", e.ID, n)
				}
			}
			got := renderResult(res)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s diverges from %s\n--- got ---\n%s--- want ---\n%s", e.ID, path, got, want)
			}
		})
	}
	dir := filepath.Join("testdata", "golden")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, ok := Get(strings.TrimSuffix(f.Name(), ".txt")); !ok {
			t.Errorf("%s belongs to no registered experiment", filepath.Join(dir, f.Name()))
		}
	}
}
