package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// suiteOptions selects what the suite (no -workload) runs.
type suiteOptions struct {
	seed     int64
	seconds  float64
	trace    bool   // also run every workload traced
	aa       bool   // run the untraced suite twice and compare
	jsonPath string // write everything measured here
	traceDir string
}

// header records where the numbers came from.
type header struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Network    string  `json:"network"`
}

func newHeader(o suiteOptions) header {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return header{
		Seed: o.seed, Seconds: o.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit,
		Network: "live traffic crossed the host loopback, not a link",
	}
}

// runChild runs one workload in a child process of this same binary, so
// that no workload inherits another's heap, caches or goroutines. The
// child's human output is passed through; its last line is the result.
func runChild(name string, o suiteOptions, traced bool, out io.Writer) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", tr, "--tracedir", o.traceDir)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(buf.String(), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	fmt.Fprintln(out, strings.TrimSuffix(text, last))
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s: no result line (%v): %w", name, runErr, err)
	}
	if runErr != nil || !res.Correct {
		return res, fmt.Errorf("%s: correctness checks failed", name)
	}
	return res, nil
}

// runAll runs every workload once and returns results by workload name.
func runAll(o suiteOptions, traced bool, out io.Writer) (map[string]resultLine, error) {
	results := map[string]resultLine{}
	var firstErr error
	for _, w := range workloads {
		res, err := runChild(w.name, o, traced, out)
		if err != nil {
			fmt.Fprintf(out, "FAILED: %v\n", err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		results[w.name] = res
	}
	return results, firstErr
}

// matrix prints one row per metric, one column per workload.
func matrix(out io.Writer, defs []metricDef, results map[string]resultLine) {
	fmt.Fprintf(out, "%-28s %-6s", "metric", "unit")
	for _, w := range workloads {
		fmt.Fprintf(out, " %14s", w.name)
	}
	fmt.Fprintln(out)
	for _, d := range defs {
		fmt.Fprintf(out, "%-28s %-6s", d.Name, d.Unit)
		for _, w := range workloads {
			if res, ok := results[w.name]; ok {
				fmt.Fprintf(out, " %14.6g", res.Metrics[d.Name].Value)
			} else {
				fmt.Fprintf(out, " %14s", "-")
			}
		}
		fmt.Fprintln(out)
	}
}

// aaRow is one metric × workload of the A/A comparison.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	Gap      float64 `json:"gap"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// compareAA lists, per gated metric × workload, the two runs' values and
// how much worse the second is than the first, and the same the other way
// round: identical code must sit within the bound whichever run is taken
// as the baseline.
func compareAA(a, b map[string]resultLine) []aaRow {
	var rows []aaRow
	for _, w := range workloads {
		ra, okA := a[w.name]
		rb, okB := b[w.name]
		if !okA || !okB {
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			higher := d.Better == "higher"
			gap := max(relGap(va, vb, higher), relGap(vb, va, higher))
			rows = append(rows, aaRow{w.name, d.Name, va, vb, gap, d.Bound, gap <= d.Bound})
		}
	}
	return rows
}

// runSuite is the no -workload mode. It returns the process exit code.
func runSuite(o suiteOptions) int {
	out := os.Stdout
	h := newHeader(o)
	fmt.Fprintf(out, "benchmark suite: seed %d, %g s per workload, nproc %d, GOMAXPROCS %d, %s, commit %s\n%s\n\n",
		h.Seed, h.Seconds, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Network)

	doc := struct {
		Header   header                `json:"header"`
		EndToEnd map[string]resultLine `json:"end_to_end"`
		Second   map[string]resultLine `json:"end_to_end_second,omitempty"`
		AA       []aaRow               `json:"aa,omitempty"`
		PerLayer map[string]resultLine `json:"per_layer,omitempty"`
		Overhead map[string]float64    `json:"trace_overhead,omitempty"`
	}{Header: h}
	exit := 0

	var err error
	if doc.EndToEnd, err = runAll(o, false, out); err != nil {
		exit = 1
	}
	fmt.Fprintln(out, "end-to-end metrics")
	matrix(out, endToEnd, doc.EndToEnd)

	if o.aa {
		if doc.Second, err = runAll(o, false, out); err != nil {
			exit = 1
		}
		doc.AA = compareAA(doc.EndToEnd, doc.Second)
		fmt.Fprintf(out, "\nA/A: the same code and seed, run twice\n%-14s %-18s %14s %14s %8s %6s\n",
			"workload", "metric", "first", "second", "gap", "bound")
		for _, row := range doc.AA {
			mark := ""
			if !row.Within {
				mark, exit = "  EXCEEDS BOUND", 1
			}
			fmt.Fprintf(out, "%-14s %-18s %14.6g %14.6g %7.1f%% %5.0f%%%s\n",
				row.Workload, row.Metric, row.A, row.B, 100*row.Gap, 100*row.Bound, mark)
		}
	}

	if o.trace {
		if doc.PerLayer, err = runAll(o, true, out); err != nil {
			exit = 1
		}
		fmt.Fprintln(out, "\nper-layer metrics (traced run)")
		matrix(out, perLayer, doc.PerLayer)
		doc.Overhead = map[string]float64{}
		fmt.Fprintln(out, "\ntrace.overhead: share of work_per_s lost with tracing on")
		for _, w := range workloads {
			plain, traced := doc.EndToEnd[w.name], doc.PerLayer[w.name]
			if base := plain.Metrics["work_per_s"].Value; base > 0 && traced.Metrics != nil {
				ov := 1 - traced.Metrics["trace.work_per_s"].Value/base
				doc.Overhead[w.name] = ov
				fmt.Fprintf(out, "%-14s %6.1f%%\n", w.name, 100*ov)
			}
		}
	}

	if o.jsonPath != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: -json: %v\n", err)
			exit = 1
		}
	}
	return exit
}
