package medium

import (
	"testing"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
)

// benchEnv keeps shadowing on: the link-gain cache must absorb the full
// Box-Muller shadowing draw, not a trimmed model.
func benchEnv() phy.Environment { return phy.Urban(7) }

// walkCensus counts, from now on, the transmissions the neighbour walks hand
// to their callbacks and the math.Pow evaluations the judgement's memo lets
// through; the returned func reports both per transmission beside ns/op.
func walkCensus(b *testing.B, med *Medium) (report func()) {
	visits := 0
	med.onWalk = func(_ region.Channel, _ des.Time, n int) { visits += n }
	return func() {
		pows := uint64(0)
		if med.judgement.memo != nil {
			pows = med.judgement.memo.misses
		}
		b.ReportMetric(float64(visits)/float64(b.N), "visits/tx")
		b.ReportMetric(float64(pows)/float64(b.N), "pow/tx")
	}
}

// BenchmarkMediumJudge measures the medium's full reception pipeline —
// Transmit fan-out, preamble burial checks, and decode judgement — under
// a contended city-like load: 64 fixed node positions, 5 ports, Poisson-ish
// staggered starts on a shared 8-channel plan. This is the hot loop of
// every city-scale experiment cell.
func BenchmarkMediumJudge(b *testing.B) {
	b.ReportAllocs()
	sim := des.New(1)
	med := New(sim, benchEnv())
	chs := make([]region.Channel, 8)
	for i := range chs {
		chs[i] = region.AS923.Channel(i)
	}
	for p := 0; p < 5; p++ {
		r, err := radio.New(sim, radio.SX1302, radio.Config{Channels: chs, Sync: lora.SyncPublic})
		if err != nil {
			b.Fatal(err)
		}
		port := med.Attach(r, phy.Pt(float64(p)*400, float64(p%2)*300), phy.Omni(3))
		med.WirePort(port)
	}
	positions := make([]phy.Point, 64)
	for i := range positions {
		positions[i] = phy.Pt(float64(50+i*29%900), float64(40+i*53%700))
	}
	med.Deliveries.Subscribe(func(Delivery) {})
	med.Drops.Subscribe(func(Drop) {})
	report := walkCensus(b, med)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node := i % len(positions)
		med.Transmit(Transmission{
			Node: NodeID(node), Network: 1, Sync: lora.SyncPublic,
			Channel: chs[i%len(chs)], DR: lora.DR(i % 6),
			PayloadLen: 23, PowerDBm: 14, Pos: positions[node],
		})
		// Advance a few ms so transmissions overlap heavily but the active
		// set keeps pruning — the steady state of a loaded cell.
		sim.RunUntil(sim.Now() + 3*des.Millisecond)
	}
	sim.Run()
	report()
}

// BenchmarkMediumWalk is the neighbour walk under a node-city-like load
// (cityLoad: two operators, mixed data rates, Poisson arrivals at 250 a
// second): visits/tx is what TestWalkVisitBudget bounds, pow/tx what the
// judgement's linear-power memo leaves of one math.Pow per interferer.
func BenchmarkMediumWalk(b *testing.B) {
	b.ReportAllocs()
	c := newCityLoad(b)
	report := walkCensus(b, c.med)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.next()
	}
	c.sim.Run()
	report()
}

// BenchmarkMediumFanOut isolates the interest-index win: a dense city of
// 24 gateways split across three disjoint 8-channel plans. Without the
// index every Transmit interrogates all 24 radios (×8 channel overlaps
// each); with it, only the ~8 ports actually monitoring the packet's bin
// are asked. The workload transmits round-robin across all 24 channels
// with spaced starts, so the judgement cost stays flat and the fan-out
// dominates.
func BenchmarkMediumFanOut(b *testing.B) {
	b.ReportAllocs()
	sim := des.New(1)
	med := New(sim, benchEnv())
	band := region.Band{
		Name: "bench24", Start: region.MHz(916.8), Spacing: 200_000,
		Channels: 24, BW: lora.BW125, DutyCycle: 0.01,
	}
	for p := 0; p < 24; p++ {
		plan := band.SubBand((p%3)*8, 8)
		r, err := radio.New(sim, radio.SX1302, radio.Config{
			Channels: plan.AllChannels(), Sync: lora.SyncPublic,
		})
		if err != nil {
			b.Fatal(err)
		}
		port := med.Attach(r, phy.Pt(float64(p%6)*500, float64(p/6)*500), phy.Omni(3))
		med.WirePort(port)
	}
	med.Deliveries.Subscribe(func(Delivery) {})
	med.Drops.Subscribe(func(Drop) {})
	pos := phy.Pt(700, 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		med.Transmit(Transmission{
			Node: NodeID(i % 64), Network: 1, Sync: lora.SyncPublic,
			Channel: band.Channel(i % 24), DR: lora.DR5,
			PayloadLen: 23, PowerDBm: 14, Pos: pos,
		})
		sim.RunUntil(sim.Now() + 2*des.Millisecond)
	}
	sim.Run()
}

// BenchmarkMediumLockOnPath isolates the pooled lock-on path: one port,
// one channel, non-overlapping packets from one interned position — the
// per-(packet, port) cost of Transmit fan-out, dispatcher entry, decode
// judgement, and result routing, with nothing contended. The allocs/op
// column is the headline: it was 7+ per reception before the task pools.
func BenchmarkMediumLockOnPath(b *testing.B) {
	b.ReportAllocs()
	sim := des.New(1)
	med := New(sim, benchEnv())
	r, err := radio.New(sim, radio.SX1302, radio.Config{
		Channels: []region.Channel{region.AS923.Channel(0)}, Sync: lora.SyncPublic,
	})
	if err != nil {
		b.Fatal(err)
	}
	port := med.Attach(r, phy.Pt(0, 0), phy.Omni(3))
	med.WirePort(port)
	med.Deliveries.Subscribe(func(Delivery) {})
	med.Drops.Subscribe(func(Drop) {})
	pos := phy.Pt(150, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		med.Transmit(Transmission{
			Node: 1, Network: 1, Sync: lora.SyncPublic,
			Channel: region.AS923.Channel(0), DR: lora.DR5,
			PayloadLen: 23, PowerDBm: 14, Pos: pos,
		})
		sim.Run() // drain: the packet completes before the next starts
	}
}

// BenchmarkMediumGainCache isolates the rxSNR memoization win: repeated
// receptions over a fixed node/gateway geometry.
func BenchmarkMediumGainCache(b *testing.B) {
	b.ReportAllocs()
	sim := des.New(1)
	med := New(sim, benchEnv())
	r, err := radio.New(sim, radio.SX1302, radio.Config{
		Channels: []region.Channel{region.AS923.Channel(0)}, Sync: lora.SyncPublic,
	})
	if err != nil {
		b.Fatal(err)
	}
	port := med.Attach(r, phy.Pt(0, 0), phy.Omni(3))
	tx := &Transmission{PowerDBm: 14, Pos: phy.Pt(321, 123)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		med.rxSNR(tx, port)
	}
}

// TestGainCacheMatchesEnvironment pins the cache's bit-exactness: the
// memoized reconstruction must equal phy.Environment.RXPowerDBm for the
// same link, including the frozen shadowing term, at any transmit power.
func TestGainCacheMatchesEnvironment(t *testing.T) {
	sim := des.New(1)
	env := benchEnv()
	med := New(sim, env)
	r, err := radio.New(sim, radio.SX1302, radio.Config{
		Channels: []region.Channel{region.AS923.Channel(0)}, Sync: lora.SyncPublic,
	})
	if err != nil {
		t.Fatal(err)
	}
	port := med.Attach(r, phy.Pt(37, -12), phy.Omni(3))
	for _, pw := range []float64{20, 14, 8, 2} {
		tx := &Transmission{PowerDBm: pw, Pos: phy.Pt(512, 256)}
		for pass := 0; pass < 2; pass++ { // miss then hit
			got, _ := med.rxSNR(tx, port)
			want := env.RXPowerDBm(phy.Link{
				TXPowerDBm: pw, TXPos: tx.Pos, RXPos: port.Pos, RXAntenna: port.Antenna,
			})
			if got != want {
				t.Fatalf("power %v pass %d: cached rssi %v != direct %v", pw, pass, got, want)
			}
		}
	}
	if len(med.posSlots) != 1 || len(port.gains) != 1 {
		t.Errorf("cache entries = %d slots / %d gains, want 1 (TPC must not add entries)",
			len(med.posSlots), len(port.gains))
	}
	med.InvalidateGains(port)
	for i, ok := range port.gainOK {
		if ok {
			t.Errorf("InvalidateGains left slot %d cached", i+1)
		}
	}
}
