// Package baseline implements the comparison strategies of the paper's
// evaluation (§5.1.1, §5.2.1):
//
//   - Standard LoRaWAN channel planning: every gateway gets one of the
//     band's standard 8-channel plans, homogeneously (the root cause of
//     "more gateways, no more gains").
//   - Random CP: Strategy ①'s variable channel count per gateway, but
//     with channels assigned at random rather than optimized.
//   - LMAC: the state-of-the-art carrier-sense MAC that avoids same
//     channel/SF collisions by deferring transmissions.
//   - CIC: the state-of-the-art PHY collision-resolution technique,
//     modelled as perfect same-channel collision recovery subject to the
//     same COTS decoder limits the paper imposes for fairness.
package baseline

import (
	"math/rand"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/node"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
)

// StandardConfigs returns homogeneous standard-plan configurations for a
// gateway fleet: gateway i runs standard plan i mod plans (Figure 19
// grouping). Co-located gateways assigned the same plan observe identical
// packets in identical order — the paper's §3.2 finding.
func StandardConfigs(band region.Band, gateways int, sync lora.SyncWord) []radio.Config {
	plans := band.Plans()
	if plans == 0 {
		plans = 1
	}
	cfgs := make([]radio.Config, gateways)
	for i := range cfgs {
		var chs []region.Channel
		if band.Channels >= region.PlanSize {
			for _, k := range band.Plan(i % plans) {
				chs = append(chs, band.Channel(k))
			}
		} else {
			chs = band.AllChannels()
		}
		cfgs[i] = radio.Config{Channels: chs, Sync: sync}
	}
	return cfgs
}

// RandomCPConfigs returns the Random CP baseline: each gateway operates a
// random number of channels (1..RxChains) on a random contiguous block —
// Strategy ① without optimization.
func RandomCPConfigs(band region.Band, gateways int, cs radio.Chipset, sync lora.SyncWord, seed int64) []radio.Config {
	rng := rand.New(rand.NewSource(seed))
	cfgs := make([]radio.Config, gateways)
	for i := range cfgs {
		size := 1 + rng.Intn(min(cs.RxChains, band.Channels))
		// Shrink until the span fits the radio.
		for size > 1 && region.Hz(size-1)*band.Spacing+region.Hz(band.BW) > cs.SpanHz {
			size--
		}
		start := rng.Intn(band.Channels - size + 1)
		var chs []region.Channel
		for k := start; k < start+size; k++ {
			chs = append(chs, band.Channel(k))
		}
		cfgs[i] = radio.Config{Channels: chs, Sync: sync}
	}
	return cfgs
}

// RandomNodeAssignment gives every node a random channel from the covered
// set and a random feasible data rate, completing the Random CP baseline.
func RandomNodeAssignment(nodes []*node.Node, cfgs []radio.Config, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var covered []region.Channel
	seen := map[region.Hz]bool{}
	for _, cfg := range cfgs {
		for _, ch := range cfg.Channels {
			if !seen[ch.Center] {
				seen[ch.Center] = true
				covered = append(covered, ch)
			}
		}
	}
	if len(covered) == 0 {
		return
	}
	for _, n := range nodes {
		n.Channels = []region.Channel{covered[rng.Intn(len(covered))]}
		n.DR = lora.DR(rng.Intn(lora.NumDRs))
	}
}

// LMAC serializes transmissions that would collide (same channel, same
// SF, overlapping airtime): a sender performs channel-activity detection
// and defers until the channel/SF pair frees up. This models LMAC's
// collision avoidance at its best; decoder contention is untouched, which
// is exactly the paper's point in Figure 13.
type LMAC struct {
	med *medium.Medium
	// busyUntil tracks, per (channel center, SF), when the air frees up.
	busyUntil map[lmacKey]des.Time
	// Backoff pads the deferred start (CAD + slot time).
	Backoff des.Time
	// MaxDefer bounds how long a sender waits before giving up on carrier
	// sense and transmitting anyway (LMAC's bounded backoff); under
	// saturation this reintroduces collisions, which is what caps LMAC's
	// throughput in the paper's Figure 13.
	MaxDefer des.Time

	// Deferred counts transmissions that had to wait.
	Deferred int
	// Forced counts transmissions sent despite a busy channel after the
	// deferral bound.
	Forced int
}

type lmacKey struct {
	center region.Hz
	sf     lora.SF
}

// NewLMAC wraps a medium with carrier-sense scheduling.
func NewLMAC(med *medium.Medium) *LMAC {
	return &LMAC{
		med: med, busyUntil: make(map[lmacKey]des.Time),
		Backoff:  5 * des.Millisecond,
		MaxDefer: 3 * des.Second,
	}
}

// Send transmits through carrier-sense: immediately when the (channel, SF)
// pair is idle, deferred to just after the pair frees when the wait is
// short, and forced through (colliding) when the wait would exceed
// MaxDefer.
func (l *LMAC) Send(n *node.Node, ch region.Channel) {
	sim := l.med.Sim()
	key := lmacKey{ch.Center, n.DR.SF()}
	now := sim.Now()
	free := l.busyUntil[key]
	air := des.FromDuration(lora.DefaultParams(n.DR).Airtime(n.PayloadLen + 13))
	if free <= now {
		l.busyUntil[key] = now + air
		n.SendOn(l.med, ch)
		return
	}
	if l.MaxDefer > 0 && free-now > l.MaxDefer {
		// Bounded backoff exhausted: transmit into the busy channel.
		l.Forced++
		n.SendOn(l.med, ch)
		return
	}
	l.Deferred++
	start := free + l.Backoff
	l.busyUntil[key] = start + air
	sim.At(start, func() {
		n.SendOn(l.med, ch)
	})
}
