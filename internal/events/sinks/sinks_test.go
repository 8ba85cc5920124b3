// The tests drive the sinks on the built-in two-operator scenario, which
// scenario composes on top of this package — hence the external package.
package sinks_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/scenario"
)

// record mirrors the tracer's JSONL fields for decoding in tests.
type record struct {
	Event  string  `json:"event"`
	TUs    int64   `json:"t_us"`
	TX     int64   `json:"tx"`
	Node   int     `json:"node"`
	Net    int     `json:"net"`
	GW     int     `json:"gw"`
	Reason string  `json:"reason"`
	Inter  bool    `json:"inter"`
	Cause  string  `json:"cause"`
	SNR    float64 `json:"snr"`
}

func tracedRun(t *testing.T, seed int64) ([]record, metrics.NetworkStats) {
	t.Helper()
	var buf bytes.Buffer
	out, err := scenario.Demo{Seed: seed, Trace: &buf}.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := out.Tracer
	if err := tr.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}
	var recs []record
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("unparseable trace line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != tr.Records() {
		t.Fatalf("parsed %d records, tracer wrote %d", len(recs), tr.Records())
	}
	return recs, out.Net.Col.Total()
}

func TestTraceMatchesCollectorTotals(t *testing.T) {
	recs, tot := tracedRun(t, 3)
	if tot.Sent == 0 {
		t.Fatal("demo scenario sent nothing")
	}

	// The outcome records are the collector's own view: their counts must
	// reproduce its Sent/Received/loss-cause totals exactly.
	causes := map[string]int{}
	outcomes := 0
	for _, r := range recs {
		if r.Event == "outcome" {
			outcomes++
			causes[r.Cause]++
		}
	}
	if outcomes != tot.Sent {
		t.Errorf("outcome records = %d, collector Sent = %d", outcomes, tot.Sent)
	}
	if causes["delivered"] != tot.Received {
		t.Errorf("delivered outcomes = %d, collector Received = %d", causes["delivered"], tot.Received)
	}
	for c := metrics.DecoderContentionIntra; c <= metrics.Others; c++ {
		if causes[c.String()] != tot.Losses[c] {
			t.Errorf("cause %v: trace = %d, collector = %d", c, causes[c.String()], tot.Losses[c])
		}
	}

	// The per-edge drop records carry enough information to reconstruct
	// the same attribution independently: replaying the collector's
	// precedence rule over delivery/drop edges must agree with every
	// outcome record.
	type verdict struct {
		delivered bool
		cause     metrics.Cause
		dropSeen  bool
	}
	perTX := map[int64]*verdict{}
	v := func(id int64) *verdict {
		x, ok := perTX[id]
		if !ok {
			x = &verdict{}
			perTX[id] = x
		}
		return x
	}
	prec := map[metrics.Cause]int{
		metrics.DecoderContentionInter: 0, metrics.DecoderContentionIntra: 1,
		metrics.ChannelContentionInter: 2, metrics.ChannelContentionIntra: 3,
		metrics.Others: 4,
	}
	reasonCause := func(reason string, inter bool) metrics.Cause {
		switch reason {
		case "decoder-contention":
			if inter {
				return metrics.DecoderContentionInter
			}
			return metrics.DecoderContentionIntra
		case "channel-contention":
			if inter {
				return metrics.ChannelContentionInter
			}
			return metrics.ChannelContentionIntra
		default:
			return metrics.Others
		}
	}
	for _, r := range recs {
		switch r.Event {
		case "delivery":
			v(r.TX).delivered = true
		case "drop":
			if r.Reason == "foreign-network" {
				continue
			}
			x := v(r.TX)
			c := reasonCause(r.Reason, r.Inter)
			if !x.dropSeen || prec[c] < prec[x.cause] {
				x.dropSeen = true
				x.cause = c
			}
		}
	}
	for _, r := range recs {
		if r.Event != "outcome" {
			continue
		}
		x := v(r.TX)
		want := "delivered"
		if !x.delivered {
			if !x.dropSeen {
				x.cause = metrics.Others
			}
			want = x.cause.String()
		}
		if r.Cause != want {
			t.Errorf("tx %d: outcome cause %q, edge reconstruction says %q", r.TX, r.Cause, want)
		}
	}
}

func TestTraceLifecycleEdges(t *testing.T) {
	recs, tot := tracedRun(t, 5)
	starts := map[int64]bool{}
	done := map[int64]bool{}
	fates := map[int64]int{}
	for _, r := range recs {
		switch r.Event {
		case "tx_start":
			if starts[r.TX] {
				t.Errorf("tx %d started twice", r.TX)
			}
			starts[r.TX] = true
		case "air_done":
			if !starts[r.TX] {
				t.Errorf("tx %d finished without starting", r.TX)
			}
			if done[r.TX] {
				t.Errorf("tx %d finished twice", r.TX)
			}
			done[r.TX] = true
		case "delivery", "drop":
			fates[r.TX]++
		case "lock_on":
			if !starts[r.TX] {
				t.Errorf("tx %d locked on before tx_start", r.TX)
			}
		}
	}
	if len(starts) != tot.Sent {
		t.Errorf("tx_start records = %d, collector Sent = %d", len(starts), tot.Sent)
	}
	if len(done) != len(starts) {
		t.Errorf("air_done for %d of %d transmissions", len(done), len(starts))
	}
	// Time-ordering: records never go backwards in simulation time.
	last := int64(-1)
	for i, r := range recs {
		if r.TUs < last {
			t.Fatalf("record %d at t=%d after t=%d: trace not time-ordered", i, r.TUs, last)
		}
		last = r.TUs
	}
}

func TestSummarySink(t *testing.T) {
	var prog bytes.Buffer
	if _, err := (scenario.Demo{Seed: 3, Progress: &prog}).Run(); err != nil {
		t.Fatal(err)
	}
	out := prog.String()
	lines := strings.Count(out, "\n")
	// 20 s window at a 5 s interval plus the final flush.
	if lines < 3 {
		t.Fatalf("summary lines = %d, want >= 3:\n%s", lines, out)
	}
	if !strings.Contains(out, "sent=") || !strings.Contains(out, "decoder(inter)=") {
		t.Errorf("summary missing counters:\n%s", out)
	}
}
