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
//	go test ./cmd/alphawan-sim/ -run CLIGolden -update
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

// TestCLIFlagsCompose pins the flags that used to be dropped without a
// word: the closed-loop run takes -trace and -mac like the others.
func TestCLIFlagsCompose(t *testing.T) {
	args := []string{"-seed", "1", "-faults", adaptivePlan, "-adaptive"}
	code, stdout, stderr, pure := runCLI(t, true, args...)
	if code != 0 || len(pure) == 0 || !strings.HasPrefix(stdout, "trace: ") {
		t.Fatalf("-adaptive -trace: exit %d, %d trace bytes\nstdout:\n%s\nstderr:\n%s", code, len(pure), stdout, stderr)
	}
	code, _, stderr, slotted := runCLI(t, true, append(args, "-mac", "slotted")...)
	if code != 0 {
		t.Fatalf("-adaptive -trace -mac slotted: exit %d\n%s", code, stderr)
	}
	if bytes.Equal(pure, slotted) {
		t.Error("-adaptive ignores -mac: slotted trace equals the pure one")
	}

	_, _, _, chaosPure := runCLI(t, true, "-seed", "1", "-faults", demoPlan)
	_, _, _, chaosSlotted := runCLI(t, true, "-seed", "1", "-faults", demoPlan, "-mac", "slotted")
	if bytes.Equal(chaosPure, chaosSlotted) {
		t.Error("-faults ignores -mac: slotted trace equals the pure one")
	}
}

// TestCLIRejects: flag combinations that mean nothing are usage errors
// (exit 2), and a plan the scenario cannot host is an error (exit 1) —
// none falls through to another mode, none panics.
func TestCLIRejects(t *testing.T) {
	badPlan := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(badPlan, []byte(`{"episodes":[{"kind":"gateway-outage","gateway":9,"start_s":1,"end_s":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		want int
		args []string
	}{
		{2, []string{"-adaptive"}},
		{2, []string{"-adaptive", "-trace", filepath.Join(t.TempDir(), "t.jsonl")}},
		{2, []string{"-faults", adaptivePlan, "-adaptive", "-replan-interval", "0"}},
		{2, []string{"-faults", adaptivePlan, "-adaptive", "-replan-interval", "-3"}},
		{2, []string{"-faults", adaptivePlan, "-adaptive", "-replan-interval", "1e-9"}},
		{2, []string{"-faults", adaptivePlan, "-adaptive", "-replan-interval", "NaN"}},
		{2, []string{"-faults", adaptivePlan, "-adaptive", "-replan-interval", "Inf"}},
		{2, []string{"-no-such-flag"}},
		{2, nil},
		{1, []string{"-faults", badPlan}},
		{1, []string{"-faults", demoPlan, "-mac", "tdma"}},
		{1, []string{"-run", "no-such-figure"}},
	} {
		code, stdout, stderr, _ := runCLI(t, false, tc.args...)
		if code != tc.want || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d (want %d), stdout %q, stderr %q", tc.args, code, tc.want, stdout, stderr)
		}
	}
}
