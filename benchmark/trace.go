package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// tracer records the traced run from outside the program: spans around
// the harness's calls into each layer and a CPU profile of the unmodified
// program (the counters read at the same seams go straight into the
// report's metrics). Everything stays in memory until write. A nil *tracer
// is tracing switched off: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	prof  bytes.Buffer
	mem0  runtime.MemStats
}

// span is one timed interval. Spans of one repetition (or one sampled
// uplink) share Req; Parent is the id of the span that caused this one,
// 0 at the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now()}
}

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, StartNs: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// add records a finished span from timestamps taken elsewhere (the
// sampled per-uplink spans of the live workloads).
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// startProfile begins the CPU profile and the allocation/GC baseline of
// the timed phase.
func (t *tracer) startProfile() error {
	if t == nil {
		return nil
	}
	runtime.ReadMemStats(&t.mem0)
	return pprof.StartCPUProfile(&t.prof)
}

// stopProfile ends the profile and stores cpu_share per module and the
// runtime figures (per op) in the report.
func (t *tracer) stopProfile(r *report, ops int64) {
	if t == nil {
		return
	}
	pprof.StopCPUProfile()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	if ops > 0 {
		r.set("runtime.allocs_per_op", float64(mem1.Mallocs-t.mem0.Mallocs)/float64(ops))
	}
	r.set("runtime.gc_pause_ms", float64(mem1.PauseTotalNs-t.mem0.PauseTotalNs)/1e6)

	stacks, err := parseProfile(t.prof.Bytes())
	if err != nil {
		r.problemf("cpu profile: %v", err)
		return
	}
	shares := foldProfile(stacks)
	named := 0.0
	for _, m := range cpuShareModules {
		r.set(m+".cpu_share", shares[m])
		if m != "other" {
			named += shares[m]
		}
	}
	r.notef("cpu profile: %d stacks, %.1f%% in named modules and runtime", len(stacks), 100*named)
}

// selfTimes returns, per span name, total duration minus the part covered
// by child spans.
func selfTimes(spans []span) map[string]int64 {
	child := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 && s.Parent <= len(spans) {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		d := s.EndNs - s.StartNs - child[s.ID]
		if d < 0 {
			d = 0 // children that ran in parallel cover more than the parent
		}
		self[s.Name] += d
	}
	return self
}

// write stores the trace as <dir>/trace-<workload>.json.
func (t *tracer) write(dir string, r *report, seed int64) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Metrics  map[string]float64 `json:"metrics"`
		SelfNs   map[string]int64   `json:"self_ns"`
		Spans    []span             `json:"spans"`
	}{r.workload, seed, r.values, selfTimes(t.spans), t.spans}
	buf, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+r.workload+".json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	r.notef("trace: %d spans written to %s", len(t.spans), path)
	return nil
}
