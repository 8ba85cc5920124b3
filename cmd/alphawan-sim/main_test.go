package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current outputs")

const (
	demoPlan     = "../../examples/faultplans/demo.json"
	adaptivePlan = "../../examples/faultplans/adaptive.json"
)

// runCLI drives run with args; when trace is set it appends
// `-trace <tmpfile>` and returns the file's bytes. The temp path is
// replaced by <trace> in the returned stdout.
func runCLI(t *testing.T, trace bool, args ...string) (code int, stdout, stderr string, traceBytes []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if trace {
		args = append(args, "-trace", path)
	}
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	if trace && code == 0 {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		traceBytes = b
	}
	return code, strings.ReplaceAll(out.String(), path, "<trace>"), errb.String(), traceBytes
}

// TestCLIGolden pins the built-in scenario modes of the binary at seed 1:
// stdout, byte for byte, plus the SHA-256 of the JSONL trace when one is
// written, against testdata/<name>.golden. Regenerate after an intended
// change with
//
//	go test -run CLIGolden -update ./cmd/alphawan-sim/
//
// and review the diff.
func TestCLIGolden(t *testing.T) {
	cases := []struct {
		name  string
		trace bool
		args  []string
	}{
		{"trace", true, nil},
		{"trace-slotted", true, []string{"-mac", "slotted"}},
		{"trace-capture", true, []string{"-mac", "capture"}},
		{"faults-trace", true, []string{"-faults", demoPlan}},
		{"faults-adaptive", false, []string{"-faults", adaptivePlan, "-adaptive"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr, trace := runCLI(t, tc.trace, append([]string{"-seed", "1"}, tc.args...)...)
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			got := stdout
			if tc.trace {
				got += fmt.Sprintf("trace sha256: %x\n", sha256.Sum256(trace))
			}
			path := filepath.Join("testdata", tc.name+".golden")
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
				t.Errorf("diverges from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
