package medium

import (
	"testing"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
)

// testEnv is a shadowing-free urban environment for predictable physics.
func testEnv() phy.Environment {
	e := phy.Urban(1)
	e.ShadowSigma = 0
	return e
}

type rig struct {
	sim        *des.Sim
	med        *Medium
	port       *Port
	deliveries []Delivery
	drops      []Drop
}

func newRig(t *testing.T, channels int) *rig {
	t.Helper()
	sim := des.New(1)
	med := New(sim, testEnv())
	chs := make([]region.Channel, channels)
	for i := range chs {
		chs[i] = region.AS923.Channel(i)
	}
	r, err := radio.New(sim, radio.SX1302, radio.Config{Channels: chs, Sync: lora.SyncPublic})
	if err != nil {
		t.Fatal(err)
	}
	port := med.Attach(r, phy.Pt(0, 0), phy.Omni(3))
	med.WirePort(port)
	rg := &rig{sim: sim, med: med, port: port}
	med.Deliveries.Subscribe(func(d Delivery) { rg.deliveries = append(rg.deliveries, d) })
	med.Drops.Subscribe(func(d Drop) { rg.drops = append(rg.drops, d) })
	return rg
}

func (r *rig) tx(node NodeID, ch int, dr lora.DR, pos phy.Point, power float64) *Transmission {
	return r.med.Transmit(Transmission{
		Node: node, Network: 1, Sync: lora.SyncPublic,
		Channel: region.AS923.Channel(ch), DR: dr,
		PayloadLen: 13, PowerDBm: power, Pos: pos,
	})
}

func TestSinglePacketDelivered(t *testing.T) {
	rg := newRig(t, 8)
	var tx *Transmission
	rg.sim.At(0, func() { tx = rg.tx(1, 0, lora.DR5, phy.Pt(100, 0), 14) })
	rg.sim.Run()
	if len(rg.deliveries) != 1 {
		t.Fatalf("deliveries = %d, drops = %v", len(rg.deliveries), rg.drops)
	}
	d := rg.deliveries[0]
	if d.TX.ID != tx.ID || d.Meta.Chain != 0 {
		t.Errorf("delivery = %+v", d.Meta)
	}
	// Airtime bookkeeping: lock-on strictly between start and end.
	if !(tx.Start < tx.LockOn && tx.LockOn < tx.End) {
		t.Errorf("times: start=%v lockon=%v end=%v", tx.Start, tx.LockOn, tx.End)
	}
	want := des.FromDuration(lora.DefaultParams(lora.DR5).Airtime(13))
	if tx.End-tx.Start != want {
		t.Errorf("airtime = %v, want %v", tx.End-tx.Start, want)
	}
}

func TestSameSettingsCollide(t *testing.T) {
	// Two equal-power packets, same channel, same SF, fully overlapped in
	// time: channel contention kills both.
	rg := newRig(t, 8)
	rg.sim.At(0, func() {
		rg.tx(1, 0, lora.DR5, phy.Pt(100, 0), 14)
		rg.tx(2, 0, lora.DR5, phy.Pt(0, 100), 14)
	})
	rg.sim.Run()
	if len(rg.deliveries) != 0 {
		t.Errorf("equal-power collision must kill both, delivered %d", len(rg.deliveries))
	}
	coll := 0
	for _, d := range rg.drops {
		if d.Reason == radio.DropChannelContention {
			coll++
		}
	}
	if coll != 2 {
		t.Errorf("channel-contention drops = %d, want 2 (got %+v)", coll, rg.drops)
	}
}

func TestCaptureEffect(t *testing.T) {
	// A much closer (stronger) packet captures the channel; the weak one
	// is lost, the strong one survives.
	rg := newRig(t, 8)
	rg.sim.At(0, func() {
		rg.tx(1, 0, lora.DR5, phy.Pt(50, 0), 14)   // strong
		rg.tx(2, 0, lora.DR5, phy.Pt(1500, 0), 14) // weak
	})
	rg.sim.Run()
	if len(rg.deliveries) != 1 || rg.deliveries[0].TX.Node != 1 {
		t.Fatalf("strong packet must capture: deliveries=%+v", rg.deliveries)
	}
}

func TestOrthogonalSFsCoexist(t *testing.T) {
	// Same channel, different SFs: quasi-orthogonal, both decode.
	rg := newRig(t, 8)
	rg.sim.At(0, func() {
		rg.tx(1, 0, lora.DR5, phy.Pt(100, 0), 14)
		rg.tx(2, 0, lora.DR3, phy.Pt(120, 0), 14)
	})
	rg.sim.Run()
	if len(rg.deliveries) != 2 {
		t.Errorf("orthogonal SFs must both decode, got %d (%+v)", len(rg.deliveries), rg.drops)
	}
}

func TestDifferentChannelsNoInteraction(t *testing.T) {
	rg := newRig(t, 8)
	rg.sim.At(0, func() {
		for ch := 0; ch < 8; ch++ {
			rg.tx(NodeID(ch), ch, lora.DR5, phy.Pt(100, float64(ch)), 14)
		}
	})
	rg.sim.Run()
	if len(rg.deliveries) != 8 {
		t.Errorf("8 disjoint channels must deliver all, got %d", len(rg.deliveries))
	}
}

func TestOracleCapacity48(t *testing.T) {
	// 48 users on 8 channels × 6 DRs, scheduled so every packet is on air
	// at the same instant (ends aligned, as in the paper's concurrency
	// experiments): the 16-decoder SX1302 receives exactly 16 and drops 32
	// as decoder contention — Figure 2a's single-gateway observation.
	rg := newRig(t, 8)
	end := des.Time(2 * des.Second)
	n := NodeID(0)
	for ch := 0; ch < 8; ch++ {
		for dr := lora.DR0; dr <= lora.DR5; dr++ {
			ch, dr, n := ch, dr, n
			start := end - des.FromDuration(lora.DefaultParams(dr).Airtime(13))
			rg.sim.At(start, func() {
				rg.tx(n, ch, dr, phy.Pt(100+float64(n), 0), 14)
			})
			n++
		}
	}
	rg.sim.Run()
	if len(rg.deliveries) != 16 {
		t.Errorf("single SX1302 gateway must deliver exactly 16 of 48, got %d", len(rg.deliveries))
	}
	noDec := 0
	for _, d := range rg.drops {
		if d.Reason == radio.DropNoDecoder {
			noDec++
		}
	}
	if noDec != 32 {
		t.Errorf("decoder-contention drops = %d, want 32", noDec)
	}
	// The slow, early-locking data rates win the decoders: every DR0 and
	// DR1 packet is received, every DR4/DR5 packet is dropped.
	for _, d := range rg.deliveries {
		if d.TX.DR > lora.DR1 {
			t.Errorf("FCFS on lock-on must favor early (slow) packets, got %v delivered", d.TX.DR)
		}
	}
}

func TestMisalignedChannelNotDetected(t *testing.T) {
	// A packet on a 50%-overlapping channel is truncated by frequency
	// selectivity: no decoder is consumed, no result emitted.
	rg := newRig(t, 8)
	off := region.Channel{
		Center:    region.AS923.Channel(0).Center + 62_500,
		Bandwidth: lora.BW125,
	}
	rg.sim.At(0, func() {
		rg.med.Transmit(Transmission{
			Node: 1, Network: 2, Sync: lora.SyncPrivate,
			Channel: off, DR: lora.DR5, PayloadLen: 13,
			PowerDBm: 14, Pos: phy.Pt(100, 0),
		})
	})
	rg.sim.Run()
	if len(rg.deliveries) != 0 || len(rg.drops) != 0 {
		t.Errorf("misaligned packet must vanish before the pipeline: %d/%d",
			len(rg.deliveries), len(rg.drops))
	}
	if rg.port.Radio.Stats().TotalSeen != 0 {
		t.Error("dispatcher must never see the misaligned packet")
	}
}

func TestForeignAlignedPacketBurnsDecoder(t *testing.T) {
	// A foreign-network packet on an *aligned* channel decodes, is
	// filtered, and meanwhile consumes a decoder (Figure 3e/f).
	rg := newRig(t, 8)
	rg.sim.At(0, func() {
		rg.med.Transmit(Transmission{
			Node: 1, Network: 2, Sync: lora.SyncPrivate,
			Channel: region.AS923.Channel(0), DR: lora.DR5,
			PayloadLen: 13, PowerDBm: 14, Pos: phy.Pt(100, 0),
		})
	})
	rg.sim.Run()
	if len(rg.deliveries) != 0 {
		t.Error("foreign packet must not be delivered")
	}
	if rg.port.Radio.Stats().Foreign != 1 {
		t.Errorf("stats = %+v, want Foreign=1", rg.port.Radio.Stats())
	}
	if len(rg.drops) != 1 || rg.drops[0].Reason != radio.DropForeignNetwork {
		t.Errorf("drops = %+v", rg.drops)
	}
}

func TestWeakSignalDropped(t *testing.T) {
	// A DR5 packet from the far cell edge cannot clear SF7's floor.
	rg := newRig(t, 8)
	rg.sim.At(0, func() { rg.tx(1, 0, lora.DR5, phy.Pt(4000, 0), 2) })
	rg.sim.Run()
	if len(rg.deliveries) != 0 {
		t.Fatal("cell-edge DR5 packet must not decode")
	}
	if len(rg.drops) != 1 || rg.drops[0].Reason != radio.DropWeakSignal {
		t.Errorf("drops = %+v", rg.drops)
	}
	// A mid-range link (~700 m, SNR ≈ -13 dB) fails at DR5 but closes at
	// DR0 — the SF trade-off that ADR exploits.
	rg2 := newRig(t, 8)
	rg2.sim.At(0, func() { rg2.tx(1, 0, lora.DR5, phy.Pt(700, 0), 2) })
	rg2.sim.Run()
	if len(rg2.deliveries) != 0 {
		t.Error("-13 dB link must not close at DR5")
	}
	rg3 := newRig(t, 8)
	rg3.sim.At(0, func() { rg3.tx(1, 0, lora.DR0, phy.Pt(700, 0), 2) })
	rg3.sim.Run()
	if len(rg3.deliveries) != 1 {
		t.Errorf("SF12 must close the -13 dB link: drops=%+v", rg3.drops)
	}
}

func TestDownPortHearsNothing(t *testing.T) {
	rg := newRig(t, 8)
	rg.port.SetDown(true)
	rg.sim.At(0, func() { rg.tx(1, 0, lora.DR5, phy.Pt(100, 0), 14) })
	rg.sim.Run()
	if len(rg.deliveries) != 0 {
		t.Error("a rebooting gateway must not receive")
	}
	if len(rg.drops) != 1 || rg.drops[0].Reason != radio.DropGatewayDown {
		t.Errorf("down-port loss must be DropGatewayDown, got %+v", rg.drops)
	}
}

// TestOverlapInterferenceShiftsThreshold reproduces Figure 16's mechanism:
// a borderline-SNR link that decodes alone fails when a non-orthogonal
// interferer occupies a 20%-overlapping channel, because the truncated
// interference raises the effective noise floor.
func TestOverlapInterferenceShiftsThreshold(t *testing.T) {
	run := func(withIntf bool) bool {
		sim := des.New(1)
		med := New(sim, testEnv())
		r, _ := radio.New(sim, radio.SX1302, radio.Config{
			Channels: []region.Channel{region.AS923.Channel(0)}, Sync: lora.SyncPublic,
		})
		port := med.Attach(r, phy.Pt(0, 0), phy.Omni(3))
		med.WirePort(port)
		ok := false
		med.Deliveries.Subscribe(func(d Delivery) {
			if d.TX.Node == 1 {
				ok = true
			}
		})
		sim.At(0, func() {
			// Victim at DR4 right at its demodulation floor: 1265 m with
			// 14 dBm in this environment gives SNR ≈ -9.5 dB, half a dB
			// above SF8's -10 dB floor.
			med.Transmit(Transmission{
				Node: 1, Network: 1, Sync: lora.SyncPublic,
				Channel: region.AS923.Channel(0), DR: lora.DR4,
				PayloadLen: 13, PowerDBm: 14, Pos: phy.Pt(1265, 0),
			})
			if withIntf {
				// Same-SF interferer on a channel overlapping 20%.
				intfCh := region.Channel{
					Center:    region.AS923.Channel(0).Center + 100_000,
					Bandwidth: lora.BW125,
				}
				med.Transmit(Transmission{
					Node: 2, Network: 2, Sync: lora.SyncPrivate,
					Channel: intfCh, DR: lora.DR4,
					PayloadLen: 13, PowerDBm: 20, Pos: phy.Pt(45, 0),
				})
			}
		})
		sim.Run()
		return ok
	}
	if !run(false) {
		t.Fatal("borderline link must decode without interference")
	}
	if run(true) {
		t.Error("20 percent overlap non-orthogonal interferer must raise the threshold past the borderline link")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, int) {
		rg := newRig(t, 8)
		rg.sim.At(0, func() {
			for i := 0; i < 30; i++ {
				rg.tx(NodeID(i), i%8, lora.DR(i%6), phy.Pt(100+40*float64(i), float64(i)), 14)
			}
		})
		rg.sim.Run()
		return len(rg.deliveries), len(rg.drops)
	}
	d1, x1 := run()
	d2, x2 := run()
	if d1 != d2 || x1 != x2 {
		t.Errorf("runs diverged: %d/%d vs %d/%d", d1, x1, d2, x2)
	}
}

func TestPruneKeepsJudgementCorrect(t *testing.T) {
	// Packets well separated in time must not interfere, and the active
	// list must not grow without bound.
	rg := newRig(t, 8)
	for k := 0; k < 100; k++ {
		at := des.Time(k) * 20 * des.Second
		rg.sim.At(at, func() { rg.tx(1, 0, lora.DR5, phy.Pt(100, 0), 14) })
	}
	rg.sim.Run()
	if len(rg.deliveries) != 100 {
		t.Errorf("sequential packets must all deliver, got %d", len(rg.deliveries))
	}
	if n := len(rg.med.byID); n > 5 {
		t.Errorf("retained set must be pruned, still %d entries", n)
	}
}
