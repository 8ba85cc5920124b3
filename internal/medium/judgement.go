package medium

import (
	"math"

	"github.com/alphawan/alphawan/internal/mac"
	"github.com/alphawan/alphawan/internal/radio"
)

// CaptureThresholdDB is the SIR a packet needs over a same-SF co-channel
// interferer to survive (capture effect).
const CaptureThresholdDB = 6.0

// OffsetRejectionDB scales the chirp-decorrelation rejection of a
// frequency-misaligned interferer: an interferer overlapping by ratio ov
// is suppressed by (1-ov)·OffsetRejectionDB on top of the spectral
// truncation. Calibrated so that a strong non-orthogonal interferer at
// 20% channel overlap raises the reception threshold by ≈3.5 dB
// (Figure 16) while ≥40% misalignment keeps PRR above 80% (Figure 8).
const OffsetRejectionDB = 40.0

// SameSettingsOverlap is the spectral overlap above which a same-SF
// interferer counts as using "identical transmission settings": it can
// bury a preamble, collide fatally, or be cancelled by CIC, and its loss
// is classified as channel contention rather than other interference.
const SameSettingsOverlap = 0.9

// Rule is a receiver's policy for same-settings collisions. The zero value
// is the classic single-winner capture rule of a COTS gateway.
type Rule struct {
	// ResolveCollisions models a CIC-class gateway (Shahid et al.,
	// SIGCOMM'21): same-channel same-SF collisions are recovered by
	// successive interference cancellation instead of destroying both
	// packets. Decoder-pool limits still apply — the paper's §5.2.1
	// fairness condition for the CIC baseline.
	ResolveCollisions bool

	// Capture, when non-nil, replaces the single-winner capture margin
	// with a pluggable same-settings collision judge (CurvingLoRa-style
	// concurrent decoding via mac.Curving). It decides only the fatality
	// of a same-settings interferer and whether superposed preambles bury
	// each other; spectral truncation, SF quasi-orthogonality, CIC, and
	// the noise budget are unchanged. Nil keeps the classic
	// CaptureThresholdDB rule bit-for-bit.
	Capture mac.CaptureModel
}

// BuriesPreambles reports whether the receiver's detector can lose a
// preamble under a stronger same-settings one (see Buries). A CIC gateway
// separates superposed same-settings packets in the decoder, and a capture
// model that locks distinct superposed preambles (CurvingLoRa's dechirp
// stage) loses nothing before dispatch.
func (r Rule) BuriesPreambles() bool {
	return !r.ResolveCollisions && (r.Capture == nil || !r.Capture.SeparatePreambles())
}

// Buries reports whether a same-settings transmission received at rssiU
// masks the preamble of one received at rssiV where they superpose: the
// per-channel detector sees a single preamble and locks onto the dominant
// packet, so the weaker one never reaches the dispatcher.
func Buries(rssiU, rssiV float64) bool { return rssiU-rssiV >= CaptureThresholdDB }

// Interferer is one transmission that overlaps the judged packet in time
// and spectrum, as the receiving port sees it.
type Interferer struct {
	// RSSI is the interferer's received power at the port in dBm.
	RSSI float64
	// Overlap is its spectral overlap with the packet's channel, in (0, 1].
	Overlap float64
	// Rejection is the receiver's isolation in dB (negative) against the
	// interferer's spreading factor; read only when SameSF is false.
	Rejection float64
	// SameSF reports that the interferer uses the packet's spreading factor.
	SameSF bool
	// Foreign reports that the interferer belongs to another network.
	Foreign bool
}

// Judgement decides whether one locked-on packet decodes. Both simulation
// engines feed it from their own neighbour walk: Begin, one Add per
// interferer, then Verdict. The value is reusable — Begin resets it and
// keeps the buffer Add gathers into under CIC and the linear-power memo —
// so each engine holds one per sweep and the reception path allocates
// nothing.
type Judgement struct {
	rule  Rule
	rssiV float64
	// intfLin is the interference folded into the noise budget so far, mW.
	intfLin float64
	// colliders counts the same-settings interferers seen (CIC only).
	colliders int
	collided  bool
	foreign   bool
	// held defers folding under CIC until the collider census is complete.
	held []Interferer
	// memo caches the dBm → mW conversions fold keeps repeating; like
	// held it survives Begin.
	memo *powMemo
}

// Begin starts the judgement of a packet received at rssiV dBm.
func (j *Judgement) Begin(rule Rule, rssiV float64) {
	*j = Judgement{rule: rule, rssiV: rssiV, held: j.held[:0], memo: j.memo}
}

// Add accounts for one interferer. It returns false once a fatal collision
// has settled the verdict and the caller may stop its walk. Interferers are
// folded in Add order. CIC's successive interference cancellation recovers
// a two-packet collision but not a pile-up of three or more same-settings
// packets (§5.2.1), so under CIC folding waits for Verdict, when the
// collider census is known, and Add always returns true.
func (j *Judgement) Add(u *Interferer) bool {
	if !j.rule.ResolveCollisions {
		return j.fold(u)
	}
	if u.SameSF && u.Overlap >= SameSettingsOverlap {
		j.colliders++
	}
	j.held = append(j.held, *u)
	return true
}

// fold reports false when u fatally collides the packet (identical
// settings, capture lost).
func (j *Judgement) fold(u *Interferer) bool {
	// Spectral truncation keeps only the overlapping slice of the
	// interferer's energy (≈ overlap² in power), and the frequency
	// offset decorrelates the chirps — LoRa's adjacent-channel
	// rejection grows roughly linearly with misalignment, reaching
	// tens of dB for mostly-disjoint channels.
	// A fully aligned interferer — the common case on a shared channel
	// grid — loses nothing: both correction terms are exactly zero, so the
	// expression below would return u.RSSI bit for bit.
	eff := u.RSSI
	if u.Overlap != 1 {
		eff = u.RSSI + 20*math.Log10(u.Overlap) - OffsetRejectionDB*(1-u.Overlap)
	}
	if !u.SameSF {
		// Quasi-orthogonal SFs: interferer suppressed by the rejection
		// isolation before entering the noise budget.
		j.intfLin += j.linear(eff + u.Rejection)
		return true
	}
	if u.Overlap >= SameSettingsOverlap {
		if j.rule.ResolveCollisions && j.colliders <= 1 {
			// CIC cancels a fully-aligned same-SF collider: it neither
			// kills the packet nor raises the noise floor.
			return true
		}
		// Identical settings: the capture rule decides — the classic
		// single-winner margin, or the installed pluggable judge.
		fatal := j.rssiV-eff < CaptureThresholdDB
		if j.rule.Capture != nil {
			fatal = !j.rule.Capture.Decodes(j.rssiV, eff)
		}
		if fatal {
			j.collided, j.foreign = true, u.Foreign
			return false
		}
	}
	// A misaligned same-SF interferer cannot steal the demodulator lock;
	// its truncated, decorrelated residue only raises the noise floor.
	j.intfLin += j.linear(eff)
	return true
}

// Verdict closes the judgement against a noise floor of noiseLin mW and the
// packet's demodulation floor in dB SNR. foreign is meaningful for
// VerdictChannelCollision only: the fatal interferer belonged to another
// network.
func (j *Judgement) Verdict(noiseLin, demodFloor float64) (v radio.DecodeVerdict, foreign bool) {
	for i := range j.held {
		if !j.fold(&j.held[i]) {
			break
		}
	}
	if j.collided {
		return radio.VerdictChannelCollision, j.foreign
	}
	if sinr := j.rssiV - mwToDBm(noiseLin+j.intfLin); sinr < demodFloor {
		return radio.VerdictWeakSignal, false
	}
	return radio.VerdictOK, false
}

func dbmToMw(dbm float64) float64 { return math.Pow(10, dbm/10) }
func mwToDBm(mw float64) float64  { return 10 * math.Log10(mw) }

// powMemoBits sizes the linear-power memo: 8192 slots, 128 KB.
const powMemoBits = 13

// powMemo is a direct-mapped cache of dbmToMw keyed by the argument's bit
// pattern. A simulation's nodes and gateways stand still, so fold converts
// the same link budgets (one per position × port × SF rejection) to
// milliwatts over and over, each through a math.Pow. Every slot always
// holds a true (bits, dbmToMw(bits)) pair — a fresh memo is filled with
// the pair of +0 dBm — so a key match returns exactly what dbmToMw would,
// and a colliding key simply overwrites the slot.
type powMemo struct {
	slots [1 << powMemoBits]struct {
		bits uint64
		mw   float64
	}
	// misses counts the dbmToMw evaluations (benchmarks report pow/tx).
	misses uint64
}

// linear is dbmToMw through the judgement's memo.
func (j *Judgement) linear(dbm float64) float64 {
	m := j.memo
	if m == nil {
		m = new(powMemo)
		zero := dbmToMw(0)
		for i := range m.slots {
			m.slots[i].mw = zero
		}
		j.memo = m
	}
	bits := math.Float64bits(dbm)
	// Link budgets differ mostly in their low mantissa bits; the Fibonacci
	// multiplier spreads those over the slot index taken from the top.
	s := &m.slots[bits*0x9E3779B97F4A7C15>>(64-powMemoBits)]
	if s.bits != bits {
		s.bits, s.mw = bits, dbmToMw(dbm)
		m.misses++
	}
	return s.mw
}
