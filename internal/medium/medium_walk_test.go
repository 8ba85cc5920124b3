package medium

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
)

// TestLongFrameOutlivesRetention pins the prune horizon to the airtimes
// actually on the air. A 200-byte DR0 frame lasts 7.2 s; a same-settings
// equal-power packet that starts inside it (after its preamble, so both
// lock on) must still be there when the long frame is judged — also when
// an unrelated packet triggers a prune pass in between. Under the fixed
// 3 s retention the trigger discarded the interferer (ended 11.8 s, pass
// at 16 s) and the victim was delivered.
func TestLongFrameOutlivesRetention(t *testing.T) {
	for _, trigger := range []bool{false, true} {
		rg := newRig(t, 8)
		// Something older on another channel, long over by the trigger.
		rg.sim.At(9900*des.Millisecond, func() { rg.tx(9, 3, lora.DR5, phy.Pt(50, 50), 14) })
		var victim *Transmission
		rg.sim.At(10*des.Second, func() {
			victim = rg.med.Transmit(Transmission{
				Node: 1, Network: 1, Sync: lora.SyncPublic,
				Channel: region.AS923.Channel(0), DR: lora.DR0,
				PayloadLen: 200, PowerDBm: 14, Pos: phy.Pt(100, 0),
			})
		})
		rg.sim.At(10600*des.Millisecond, func() { rg.tx(2, 0, lora.DR0, phy.Pt(0, 100), 14) })
		if trigger {
			rg.sim.At(16*des.Second, func() { rg.tx(8, 5, lora.DR5, phy.Pt(50, 50), 14) })
		}
		rg.sim.Run()

		if air := victim.End - victim.Start; air < 7*des.Second {
			t.Fatalf("victim airtime %v, want a frame far longer than 3 s", air)
		}
		for _, d := range rg.deliveries {
			if d.TX == victim {
				t.Errorf("trigger=%v: victim delivered although a same-settings equal-power packet overlapped it", trigger)
			}
		}
		lost := false
		for _, d := range rg.drops {
			if d.TX == victim && d.Reason == radio.DropChannelContention {
				lost = true
			}
		}
		if !lost {
			t.Errorf("trigger=%v: victim must be lost to channel contention; drops %+v", trigger, rg.drops)
		}
	}
}

// walkCheck is what one checkWalkMatchesScan run saw, so the test can
// insist the script reached the cases the index exists for.
type walkCheck struct {
	judged, collided, foreign, buried int
	partial                           int // judge candidates overlapping the victim's channel only partly
	fromBelow, fromAbove              int // ... from the frequency bin below / above the victim's
	longFrames                        int // frames longer than 3 s
}

// scriptStep is how many script bytes describe one transmission.
const scriptStep = 5

// checkWalkMatchesScan plays a script of transmissions (scriptStep bytes
// each: data rate and operator, payload length, channel and plan shift,
// arrival gap, power and position) through a real Medium with one gateway
// per operator, and at every lock-on and every decode end compares the
// neighbour walk with a brute-force scan of every transmission ever sent —
// never pruned — in (bin, ID) order: the candidates left by the callers'
// exact predicates must be the same elements in the same order, and
// buriedBy and judge must reach the reference's hit, verdict and
// inter-network flag.
func checkWalkMatchesScan(t *testing.T, script []byte) walkCheck {
	t.Helper()
	sim := des.New(1)
	med := New(sim, phy.Urban(7))
	grid := region.Testbed.SubBand(0, 8)
	syncs := []lora.SyncWord{lora.SyncPublic, lora.SyncPrivate} // operator 1, operator 2
	for i, sync := range syncs {
		r, err := radio.New(sim, radio.SX1302, radio.Config{Channels: grid.AllChannels(), Sync: sync})
		if err != nil {
			t.Fatal(err)
		}
		med.WirePort(med.Attach(r, phy.Pt(float64(i)*500, 200), phy.Omni(3)))
	}

	var all []*Transmission // every transmission ever sent, in ID order
	med.TXStarts.Subscribe(func(tx *Transmission) { all = append(all, tx) })
	scan := func(v *Transmission, keep func(u *Transmission) bool) []*Transmission {
		var out []*Transmission
		for d := int64(-1); d <= 1; d++ {
			for _, u := range all {
				if bin(u.Channel.Center) == bin(v.Channel.Center)+d && keep(u) {
					out = append(out, u)
				}
			}
		}
		return out
	}
	walk := func(v *Transmission, only lora.DR, keep func(u *Transmission) bool) []*Transmission {
		var out []*Transmission
		med.neighbors(v.Channel, only, v.Start, func(u *Transmission) bool {
			if keep(u) {
				out = append(out, u)
			}
			return true
		})
		return out
	}
	same := func(what string, v *Transmission, got, want []*Transmission) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s of tx %d: walk found %d candidates, scan %d", what, v.ID, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s of tx %d: candidate %d is tx %d, scan has tx %d", what, v.ID, i, got[i].ID, want[i].ID)
			}
		}
	}

	var st walkCheck
	med.LockOns.Subscribe(func(ev LockOnEvent) {
		v, p, rssiV := ev.TX, ev.Port, ev.Meta.RSSIdBm
		masks := func(u *Transmission) bool {
			return u.ID != v.ID && u.DR == v.DR && u.End > v.Start && u.Start < v.LockOn &&
				v.Channel.Overlap(u.Channel) >= SameSettingsOverlap
		}
		want := scan(v, masks)
		same("preamble burial", v, walk(v, v.DR, masks), want)
		var wantHit *Transmission
		for _, u := range want {
			if rssiU, _ := med.rxSNR(u, p); Buries(rssiU, rssiV) {
				wantHit = u
				break
			}
		}
		if hit := med.buriedBy(v, p, rssiV); hit != wantHit {
			t.Fatalf("buriedBy(tx %d) = %v, scan says %v", v.ID, hit, wantHit)
		}
		if wantHit != nil {
			st.buried++
		}

		sim.At(v.End, func() {
			interferes := func(u *Transmission) bool {
				return u.ID != v.ID && u.End > v.Start && u.Start < v.End && v.Channel.Overlap(u.Channel) > 0
			}
			want := scan(v, interferes)
			same("judgement", v, walk(v, allDRs, interferes), want)

			var ref Judgement
			ref.Begin(med.Rule, rssiV)
			sf := v.DR.SF()
			for _, u := range want {
				ov := v.Channel.Overlap(u.Channel)
				if ov < 1 {
					st.partial++
				}
				switch bin(u.Channel.Center) - bin(v.Channel.Center) {
				case -1:
					st.fromBelow++
				case 1:
					st.fromAbove++
				}
				rssiU, _ := med.rxSNR(u, p)
				if !ref.Add(&Interferer{
					RSSI: rssiU, Overlap: ov,
					Rejection: lora.CoChannelRejection(sf, u.DR.SF()),
					SameSF:    u.DR.SF() == sf,
					Foreign:   u.Network != v.Network,
				}) {
					break
				}
			}
			wantV, wantForeign := ref.Verdict(noiseFloorLin125, lora.DemodFloorSNR(sf))
			key := judgeKey{v.ID, p.id}
			gotV := med.judge(v, p, rssiV)
			gotForeign := med.collisionIntf[key]
			delete(med.collisionIntf, key) // the radio's own judge call sets it again
			if gotV != wantV || gotForeign != wantForeign {
				t.Fatalf("judge(tx %d) = %v (inter-network %v), scan says %v (%v)", v.ID, gotV, gotForeign, wantV, wantForeign)
			}
			st.judged++
			if wantV == radio.VerdictChannelCollision {
				st.collided++
				if wantForeign {
					st.foreign++
				}
			}
		})
	})

	positions := make([]phy.Point, 16)
	for i := range positions {
		positions[i] = phy.Pt(float64(40+i*67%560), float64(30+i*131%420))
	}
	at := des.Time(0)
	for ; len(script) >= scriptStep; script = script[scriptStep:] {
		dr := lora.DR(script[0] % lora.NumDRs)
		network := NetworkID(1 + script[0]/lora.NumDRs%2)
		payload := 8 + int(script[1])%56
		if script[1] >= 224 {
			payload = 200 + int(script[1])%48 // over 3 s on air at DR0 and DR1
		}
		// The Testbed grid, a plan shifted by 20 % / 40 % of the bandwidth
		// (partial overlap within the bin), or one shifted down so far
		// that it clips the grid channel above from the bin below
		// (-110 kHz) or the grid channel below from the bin above (-90 kHz).
		ch := grid.Channel(int(script[2]) % 8)
		ch.Center += []region.Hz{0, 25_000, 50_000, -110_000, -90_000}[script[2]/8%5]
		gap := des.Time(script[3]) * des.Millisecond / 2
		if script[3] >= 240 {
			gap = des.Time(script[3]-239) * 2 * des.Second // the air empties, prune catches up
		}
		at += gap
		tx := Transmission{
			Node: NodeID(script[4] / 4 % 16), Network: network,
			Sync:    syncs[network-1],
			Channel: ch, DR: dr, PayloadLen: payload,
			PowerDBm: 2 + 6*float64(script[4]%4), Pos: positions[script[4]/4%16],
		}
		sim.At(at, func() {
			if sent := med.Transmit(tx); sent.End-sent.Start > 3*des.Second {
				st.longFrames++
			}
		})
	}
	sim.Run()
	return st
}

// TestWalkMatchesLinearScan is the differential test of the lane index on
// a few thousand random transmissions.
func TestWalkMatchesLinearScan(t *testing.T) {
	script := make([]byte, 3000*scriptStep)
	rand.New(rand.NewSource(16)).Read(script)
	st := checkWalkMatchesScan(t, script)
	t.Logf("%+v", st)
	if st.judged < 1000 || st.collided == 0 || st.foreign == 0 || st.buried == 0 ||
		st.partial == 0 || st.fromBelow == 0 || st.fromAbove == 0 || st.longFrames == 0 {
		t.Errorf("script missed a case the index must get right: %+v", st)
	}
}

func FuzzWalkMatchesScan(f *testing.F) {
	seed := make([]byte, 200*scriptStep)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Add([]byte{0, 250, 0, 0, 8, 0, 10, 0, 200, 12, 5, 10, 3, 255, 0}) // long frame, collider, trigger after a long gap
	f.Fuzz(func(t *testing.T, script []byte) {
		// The reference scan makes a run quadratic in the script.
		if len(script) > 256*scriptStep {
			script = script[:256*scriptStep]
		}
		checkWalkMatchesScan(t, script)
	})
}

// TestLinearPowerMemoBitExact holds the judgement's linear-power memo to
// dbmToMw bit for bit: on the special values, on two keys that share a
// slot and keep evicting each other, and on a million draws from a pool
// several times the memo's size.
func TestLinearPowerMemoBitExact(t *testing.T) {
	var j Judgement
	check := func(dbm float64) {
		t.Helper()
		if got, want := j.linear(dbm), dbmToMw(dbm); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("linear(%v [%#x]) = %v [%#x], dbmToMw gives %v [%#x]", dbm, math.Float64bits(dbm),
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -400, 400}
	for pass := 0; pass < 2; pass++ { // miss, then hit
		for _, dbm := range specials {
			check(dbm)
		}
	}

	// Two keys in one slot: find where a lives, then a b that lands on it.
	a := -97.25
	check(a)
	slot := -1
	for i := range j.memo.slots {
		if j.memo.slots[i].bits == math.Float64bits(a) {
			slot = i
		}
	}
	if slot < 0 {
		t.Fatal("looked-up key is in no slot")
	}
	b := a
	for j.memo.slots[slot].bits == math.Float64bits(a) {
		b = math.Nextafter(b, 0)
		check(b)
	}
	for i := 0; i < 4; i++ {
		check(a)
		check(b)
	}

	rng := rand.New(rand.NewSource(1))
	pool := make([]float64, 4<<powMemoBits)
	for i := range pool {
		pool[i] = -170 + 200*rng.Float64()
	}
	before := j.memo.misses
	const draws = 1_000_000
	for i := 0; i < draws; i++ {
		check(pool[rng.Intn(len(pool))])
	}
	if misses := j.memo.misses - before; misses == 0 || misses >= draws {
		t.Errorf("%d misses in %d draws: the memo must both hit and evict here", misses, draws)
	}
	// A judgement keeps its memo across Begin.
	memo := j.memo
	j.Begin(Rule{}, -100)
	if j.memo != memo {
		t.Error("Begin dropped the memo")
	}
}

// cityLoad is the fixed mixed-DR two-operator scenario behind the visit
// budget and BenchmarkMediumWalk: three plus two gateways on the same
// eight Testbed channels, 64 node positions, data rates weighted towards
// the slow ones the way node-city's static provisioning is, Poisson
// arrivals at 250 transmissions a second.
type cityLoad struct {
	sim *des.Sim
	med *Medium
	rng *rand.Rand
	chs []region.Channel
	pos []phy.Point
}

func newCityLoad(tb testing.TB) *cityLoad {
	c := &cityLoad{sim: des.New(1), rng: rand.New(rand.NewSource(1))}
	c.med = New(c.sim, phy.Urban(7))
	c.chs = region.Testbed.SubBand(0, 8).AllChannels()
	for i := 0; i < 5; i++ {
		sync := lora.SyncPublic
		if i >= 3 {
			sync = lora.SyncPrivate
		}
		r, err := radio.New(c.sim, radio.SX1302, radio.Config{Channels: c.chs, Sync: sync})
		if err != nil {
			tb.Fatal(err)
		}
		c.med.WirePort(c.med.Attach(r, phy.Pt(float64(i)*400, float64(i%2)*300), phy.Omni(3)))
	}
	c.pos = make([]phy.Point, 64)
	for i := range c.pos {
		c.pos[i] = phy.Pt(float64(50+i*29%1600), float64(40+i*53%700))
	}
	c.med.Deliveries.Subscribe(func(Delivery) {})
	c.med.Drops.Subscribe(func(Drop) {})
	return c
}

// next lets the simulation run up to the next arrival and transmits it.
func (c *cityLoad) next() {
	c.sim.RunUntil(c.sim.Now() + des.Time(c.rng.ExpFloat64()*float64(4*des.Millisecond)))
	node := c.rng.Intn(len(c.pos))
	network, sync := NetworkID(1), lora.SyncPublic
	if node%4 == 3 {
		network, sync = 2, lora.SyncPrivate
	}
	c.med.Transmit(Transmission{
		Node: NodeID(node), Network: network, Sync: sync,
		Channel:    c.chs[c.rng.Intn(len(c.chs))],
		DR:         []lora.DR{0, 1, 1, 2, 2, 3, 4, 5, 5, 5}[c.rng.Intn(10)],
		PayloadLen: 23, PowerDBm: 14, Pos: c.pos[node],
	})
}

// TestWalkVisitBudget bounds the neighbour walk's work by count, not by
// timing: on cityLoad the walks may hand their callbacks at most
// visitCeiling transmissions per transmission sent. The ceiling means
// something only while a single start-sorted list per bin with one
// medium-wide airtime back-window — the index this one replaced — would
// exceed it at least threefold on the very same walks, so the test
// recomputes that census too (CI runs this).
func TestWalkVisitBudget(t *testing.T) {
	const (
		sent         = 4000
		visitCeiling = 40
	)
	c := newCityLoad(t)
	var all []*Transmission // in start order
	c.med.TXStarts.Subscribe(func(tx *Transmission) { all = append(all, tx) })
	var visits, backWindow int
	c.med.onWalk = func(ch region.Channel, winStart des.Time, n int) {
		visits += n
		from := sort.Search(len(all), func(i int) bool { return all[i].Start >= winStart-c.med.horizon })
		for _, u := range all[from:] {
			if d := bin(u.Channel.Center) - bin(ch.Center); -1 <= d && d <= 1 {
				backWindow++
			}
		}
	}
	for i := 0; i < sent; i++ {
		c.next()
	}
	c.sim.Run()
	perTx, oldPerTx := float64(visits)/sent, float64(backWindow)/sent
	t.Logf("%.1f visits per transmission; one global back-window: %.1f", perTx, oldPerTx)
	if perTx > visitCeiling {
		t.Errorf("walks visit %.1f transmissions per transmission sent, budget %d", perTx, visitCeiling)
	}
	if oldPerTx < 3*visitCeiling {
		t.Errorf("a global back-window would visit %.1f per transmission: the scenario no longer separates the two (want ≥ %d)",
			oldPerTx, 3*visitCeiling)
	}
}
