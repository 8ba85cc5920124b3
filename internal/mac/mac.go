// Package mac is the pluggable MAC strategy seam: it carves the
// transmission-scheduling and collision-verdict policies that used to be
// hard-coded across node, soa, radio, and medium into two small,
// composable knobs:
//
//   - A slot scheduler (SlotGrid): pure-ALOHA access (the paper's S1/S2/
//     S7/S8 assumption) is the nil default; installing a SlotGrid overlays
//     slotted ALOHA with beacon-free synchronization — devices derive the
//     slot boundaries from downlink-observed time anchors, each with its
//     own bounded clock-frequency error, and absorb the residual drift in
//     per-slot guard intervals (Polonelli et al.).
//   - A capture model (CaptureModel): the single-winner 6 dB capture
//     margin is the nil default; installing Curving replaces it with a
//     CurvingLoRa-style judge where overlapping same-settings packets
//     with sufficient power separation each decode.
//
// The slot scheduler is applied by both traffic generators (node.Node and
// soa.Core's arena); the capture model is applied in one place,
// medium.Judgement, which both simulation cores call — so the cores stay
// replay-equivalent under every MAC. Everything here is pure integer/float
// arithmetic on explicit state — no clocks, no RNG objects — which is what
// keeps the sharded sweeps byte-identical for any grid shape and worker
// count.
package mac

import (
	"fmt"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
)

// Kind selects a MAC scenario by name — the experiment matrices and the
// `alphawan-sim -mac` flag sweep these.
type Kind int

// The three first-class MAC scenarios.
const (
	// KindPure is plain ALOHA: transmit as soon as traffic and the duty
	// cycle allow — the behavior-preserving default.
	KindPure Kind = iota
	// KindSlotted overlays a slotted-ALOHA grid (SlotGrid) on every
	// device's send scheduling.
	KindSlotted
	// KindCapture keeps ALOHA access but swaps the gateway's collision
	// verdict for the Curving concurrent-decode model.
	KindCapture
)

var kindNames = []string{"pure", "slotted", "capture"}

// String returns the kind's CLI name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("mac.Kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind resolves a CLI name to a Kind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if s == n {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("mac: unknown MAC %q (want pure, slotted, or capture)", s)
}

// Kinds returns every MAC scenario, in matrix-sweep order.
func Kinds() []Kind { return []Kind{KindPure, KindSlotted, KindCapture} }

// DefaultGuard is the per-slot guard interval: a transmission nominally
// starts one guard after its slot boundary, so a clock error within
// ±guard keeps it inside the slot.
const DefaultGuard = 4 * des.Millisecond

// DefaultMaxSkewPPB bounds a device's clock-frequency error at ±20 ppm —
// the crystal tolerance class of COTS LoRa end devices.
const DefaultMaxSkewPPB = 20_000

// SlotGrid is the beacon-free slotted-ALOHA overlay. Slot boundaries are
// a global grid per data rate (slot length = that DR's airtime plus two
// guards, so only same-SF packets — the fatal-collision class — share a
// grid); each device tracks the grid through its own skewed clock,
// re-zeroed whenever a downlink supplies a fresh time anchor.
//
// Everything is exported-value state and the scheduling function TxTime
// is pure, so the object path, the SoA arena, and any replay test compute
// bit-identical slot picks from the same (device, earliest, anchor)
// inputs.
type SlotGrid struct {
	// Seed derives every device's clock-frequency error.
	Seed int64
	// Slot is the per-DR slot length (airtime + 2·Guard).
	Slot [lora.NumDRs]des.Time
	// Guard is the per-slot guard interval; clock error is clamped to
	// ±Guard (the bounded-drift assumption: devices re-anchor before
	// drift exceeds the guard).
	Guard des.Time
	// MaxSkewPPB bounds the per-device clock-frequency error (parts per
	// billion).
	MaxSkewPPB int64
}

// NewSlotGrid builds the grid for a fixed PHY-payload length (application
// payload plus the 13-byte LoRaWAN frame overhead) with the default guard
// and skew bound.
func NewSlotGrid(seed int64, phyLen int) *SlotGrid {
	g := &SlotGrid{Seed: seed, Guard: DefaultGuard, MaxSkewPPB: DefaultMaxSkewPPB}
	for d := lora.DR0; d < lora.NumDRs; d++ {
		air := des.FromDuration(lora.DefaultParams(d).Airtime(phyLen))
		g.Slot[d] = air + 2*g.Guard
	}
	return g
}

// mix64 is the splitmix64 finalizer — the same mixing des.StreamSeed and
// the soa arena's traffic RNG build on.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// SkewPPB returns the device's constant clock-frequency error in parts
// per billion, uniformly derived from (Seed, devKey) in ±MaxSkewPPB.
func (g *SlotGrid) SkewPPB(devKey uint32) int64 {
	if g.MaxSkewPPB <= 0 {
		return 0
	}
	z := mix64(uint64(g.Seed)*0x9E3779B97F4A7C15 + uint64(devKey) + 0x94D049BB133111EB)
	span := uint64(2*g.MaxSkewPPB + 1)
	return int64(z%span) - g.MaxSkewPPB
}

// clockErr is the device's clock error at grid instant t: the skew
// integrated since the last anchor, clamped to ±Guard (bounded drift).
func (g *SlotGrid) clockErr(skewPPB int64, t, anchor des.Time) des.Time {
	e := des.Time(skewPPB * int64(t-anchor) / 1_000_000_000)
	if e > g.Guard {
		e = g.Guard
	} else if e < -g.Guard {
		e = -g.Guard
	}
	return e
}

// slotStart is the instant device devKey actually keys up for slot k of
// the dr grid: the true boundary, plus one guard, plus the device's clock
// error at that boundary. It is strictly increasing in k (the error
// changes by far less than a slot between consecutive boundaries and is
// clamped besides).
func (g *SlotGrid) slotStart(skewPPB int64, slot des.Time, k int64, anchor des.Time) des.Time {
	b := des.Time(k) * slot
	return b + g.Guard + g.clockErr(skewPPB, b, anchor)
}

// TxTime returns the earliest slotted transmit instant ≥ earliest for
// device devKey at data rate dr, given the device's last sync anchor. It
// is a pure function — calling it again with its own result returns the
// same instant — so epoch-sharded schedulers can defer a send across a
// horizon and recompute it later without drift. The zero Guard/Slot case
// degrades to pure ALOHA (earliest itself).
func (g *SlotGrid) TxTime(devKey uint32, dr uint8, earliest, anchor des.Time) des.Time {
	if int(dr) >= len(g.Slot) {
		return earliest
	}
	slot := g.Slot[dr]
	if slot <= 0 {
		return earliest
	}
	skew := g.SkewPPB(devKey)
	// Seed k near the answer, then settle with the monotone boundary walk
	// (at most a step or two — clock error is bounded by one guard).
	k := int64((earliest - 2*g.Guard) / slot)
	if k < 0 {
		k = 0
	}
	for g.slotStart(skew, slot, k, anchor) < earliest {
		k++
	}
	for k > 0 && g.slotStart(skew, slot, k-1, anchor) >= earliest {
		k--
	}
	return g.slotStart(skew, slot, k, anchor)
}
