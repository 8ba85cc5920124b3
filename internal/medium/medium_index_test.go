package medium

import (
	"testing"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
)

// TestReindexPortAfterReconfigure pins the interest-index contract for
// direct radio mutation: after Radio.Reconfigure to a spectrally disjoint
// plan, ReindexPort must make the port reachable on the new channels and
// unreachable on the old ones.
func TestReindexPortAfterReconfigure(t *testing.T) {
	rg := newRig(t, 1) // monitors AS923 CH0 only
	moved := region.Channel{Center: region.MHz(925.0), Bandwidth: lora.BW125}

	rg.sim.At(0, func() { rg.tx(1, 0, lora.DR5, phy.Pt(100, 0), 14) })
	rg.sim.At(des.Second, func() {
		if err := rg.port.Radio.Reconfigure(radio.Config{
			Channels: []region.Channel{moved}, Sync: lora.SyncPublic,
		}); err != nil {
			t.Fatal(err)
		}
		rg.med.ReindexPort(rg.port)
	})
	// Old channel after the replan: the port must no longer hear it.
	rg.sim.At(2*des.Second, func() { rg.tx(2, 0, lora.DR5, phy.Pt(100, 0), 14) })
	// New channel (a bin no port occupied at setup): must be heard.
	rg.sim.At(3*des.Second, func() {
		rg.med.Transmit(Transmission{
			Node: 3, Network: 1, Sync: lora.SyncPublic,
			Channel: moved, DR: lora.DR5,
			PayloadLen: 13, PowerDBm: 14, Pos: phy.Pt(100, 0),
		})
	})
	rg.sim.Run()
	if len(rg.deliveries) != 2 {
		t.Fatalf("deliveries = %d, want pre-replan CH0 + post-replan moved channel (drops %+v)",
			len(rg.deliveries), rg.drops)
	}
	if rg.deliveries[0].TX.Node != 1 || rg.deliveries[1].TX.Node != 3 {
		t.Errorf("delivered nodes = %d, %d; want 1 then 3",
			rg.deliveries[0].TX.Node, rg.deliveries[1].TX.Node)
	}
}

// TestInterestIndexCrossBinDetection guards the index's over-approximation
// margin: a transmission whose center falls in a *different* 200 kHz bin
// than the monitoring channel's, but whose spectral overlap still clears
// radio.DetectOverlapThreshold, must reach the port. A 30 kHz offset puts
// the packet at 0.76 overlap — detectable — while crossing the bin
// boundary below AS923 CH0.
func TestInterestIndexCrossBinDetection(t *testing.T) {
	rg := newRig(t, 1)
	shifted := region.Channel{
		Center:    region.AS923.Channel(0).Center - 30_000,
		Bandwidth: lora.BW125,
	}
	if b0, b1 := shifted.Center/200_000, region.AS923.Channel(0).Center/200_000; b0 == b1 {
		t.Fatalf("test geometry broken: both centers in bin %d", b0)
	}
	rg.sim.At(0, func() {
		rg.med.Transmit(Transmission{
			Node: 1, Network: 1, Sync: lora.SyncPublic,
			Channel: shifted, DR: lora.DR5,
			PayloadLen: 13, PowerDBm: 14, Pos: phy.Pt(100, 0),
		})
	})
	rg.sim.Run()
	if len(rg.deliveries) != 1 {
		t.Fatalf("cross-bin 76%%-overlap packet must be delivered; drops %+v", rg.drops)
	}
}

// edge is one recorded lifecycle edge, including the bit pattern of the
// receive metadata, for exact replay comparison.
type edge struct {
	tx     int64
	port   int
	reason radio.DropReason
	rssi   float64
	snr    float64
	at     des.Time
}

// runReplayScenario drives a fixed two-port contended scenario and
// returns every delivery/drop edge. When perturb is non-nil it is invoked
// mid-run (at 4 s and 8 s) — used to verify that cache and index
// maintenance calls have no observable effect.
func runReplayScenario(t *testing.T, perturb func(*Medium)) []edge {
	t.Helper()
	sim := des.New(1)
	med := New(sim, phy.Urban(7)) // shadowing on: exercise the frozen draw
	chs := region.AS923.AllChannels()
	var ports []*Port
	for i := 0; i < 2; i++ {
		r, err := radio.New(sim, radio.SX1302, radio.Config{Channels: chs, Sync: lora.SyncPublic})
		if err != nil {
			t.Fatal(err)
		}
		p := med.Attach(r, phy.Pt(float64(i)*600, 200), phy.Omni(3))
		med.WirePort(p)
		ports = append(ports, p)
	}
	var edges []edge
	med.Deliveries.Subscribe(func(d Delivery) {
		edges = append(edges, edge{d.TX.ID, d.Port.Index(), radio.DropNone,
			d.Meta.RSSIdBm, d.Meta.SNRdB, sim.Now()})
	})
	med.Drops.Subscribe(func(d Drop) {
		edges = append(edges, edge{d.TX.ID, d.Port.Index(), d.Reason, 0, 0, sim.Now()})
	})
	for i := 0; i < 48; i++ {
		i := i
		sim.At(des.Time(i)*des.Second/4, func() {
			med.Transmit(Transmission{
				Node: NodeID(i), Network: 1, Sync: lora.SyncPublic,
				Channel: region.AS923.Channel(i % 8), DR: lora.DR(i % 6),
				PayloadLen: 23, PowerDBm: 14,
				Pos: phy.Pt(float64(30+i*71%800), float64(20+i*37%600)),
			})
		})
	}
	if perturb != nil {
		sim.At(4*des.Second, func() { perturb(med) })
		sim.At(8*des.Second, func() { perturb(med) })
	}
	sim.Run()
	return edges
}

// TestInvalidateAndReindexBitIdentical is the cache-coherence regression:
// dropping every cached link gain and forcing interest-index rebuilds in
// the middle of a run must leave the full delivery/drop edge sequence —
// including the float bit patterns of RSSI and SNR — identical to an
// unperturbed run.
func TestInvalidateAndReindexBitIdentical(t *testing.T) {
	clean := runReplayScenario(t, nil)
	perturbed := runReplayScenario(t, func(m *Medium) {
		for _, p := range m.Ports() {
			m.InvalidateGains(p)
			m.ReindexPort(p)
		}
	})
	if len(clean) == 0 {
		t.Fatal("scenario produced no edges")
	}
	if len(clean) != len(perturbed) {
		t.Fatalf("edge counts differ: %d vs %d", len(clean), len(perturbed))
	}
	for i := range clean {
		if clean[i] != perturbed[i] {
			t.Fatalf("edge %d differs:\nclean:     %+v\nperturbed: %+v", i, clean[i], perturbed[i])
		}
	}
}

// TestDenseGainCacheBitExact pins the dense (interned-slot) cache path:
// a transmission that went through Transmit must reconstruct exactly the
// direct link-budget evaluation, on both the miss and the hit pass.
func TestDenseGainCacheBitExact(t *testing.T) {
	sim := des.New(1)
	env := phy.Urban(7)
	med := New(sim, env)
	r, err := radio.New(sim, radio.SX1302, radio.Config{
		Channels: []region.Channel{region.AS923.Channel(0)}, Sync: lora.SyncPublic,
	})
	if err != nil {
		t.Fatal(err)
	}
	port := med.Attach(r, phy.Pt(37, -12), phy.Omni(3))
	var tx *Transmission
	sim.At(0, func() {
		tx = med.Transmit(Transmission{
			Node: 1, Network: 1, Sync: lora.SyncPublic,
			Channel: region.AS923.Channel(0), DR: lora.DR5,
			PayloadLen: 13, PowerDBm: 14, Pos: phy.Pt(512, 256),
		})
	})
	sim.Run()
	if tx.posSlot == 0 {
		t.Fatal("Transmit must intern the transmitter position")
	}
	want := env.RXPowerDBm(phy.Link{
		TXPowerDBm: 14, TXPos: tx.Pos, RXPos: port.Pos, RXAntenna: port.Antenna,
	})
	for pass := 0; pass < 2; pass++ { // hit (Transmit already cached it), then hit again
		if got, _ := med.rxSNR(tx, port); got != want {
			t.Fatalf("pass %d: dense cached rssi %v != direct %v", pass, got, want)
		}
	}
	med.InvalidateGains(port)
	if got, _ := med.rxSNR(tx, port); got != want {
		t.Fatalf("post-invalidation recompute %v != direct %v", got, want)
	}
}
