// Package bench times the reproduction: one sub-benchmark per registered
// experiment, each iteration regenerating the experiment's full table at
// seed 1.
//
//	go test -run '^$' -bench 'Experiment/fig13$' -benchmem
//	go test -run '^$' -bench . -benchtime 1x -v     # also prints each table
//
// End-to-end throughput, latency under load, memory and the per-layer
// breakdown are benchmark/run.sh's job; this file answers "what does
// regenerating figure X cost".
package bench

import (
	"testing"

	"github.com/alphawan/alphawan/internal/experiments"
)

// minutesLong are the ids left out: CI's bench smoke runs every benchmark
// once, and these two take minutes each (alphawan-sim -run <id> runs them).
var minutesLong = map[string]bool{"city-1M": true, "fig-mac": true}

func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.All() {
		if minutesLong[e.ID] {
			continue
		}
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			var devices int
			for i := 0; i < b.N; i++ {
				res := e.Run(1)
				if res.Table.Rows() == 0 {
					b.Fatalf("%s produced no rows", e.ID)
				}
				devices = res.Devices
				if i == 0 && testing.Verbose() {
					b.Logf("\n%s", res.Table.String())
					for _, n := range res.Notes {
						b.Logf("-> %s", n)
					}
				}
			}
			if devices > 0 {
				b.ReportMetric(float64(devices)*float64(b.N)/b.Elapsed().Seconds(), "devices/sec")
			}
		})
	}
}
