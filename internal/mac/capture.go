package mac

// CaptureModel is the pluggable collision verdict for same-settings
// (same-SF, near-fully-overlapping) superposed packets. The nil default
// everywhere is the classic single-winner capture rule: the packet
// survives only when it is CaptureThresholdDB stronger than the
// interferer. A model replaces exactly that fatality predicate — spectral
// truncation, SF quasi-orthogonality, CIC cancellation, the noise-budget
// integral, and decoder FCFS accounting all stay as they are.
//
// medium.Judgement — the one reception kernel under both simulation
// engines — consults the model at two points:
//
//   - Preamble stage: SeparatePreambles gates the detector's
//     preamble-burial rule (medium.Rule.BuriesPreambles). A model that can
//     lock distinct superposed preambles never loses the weaker packet
//     before dispatch.
//   - Decode stage: Decodes is the per-interferer fatality predicate
//     inside the decode judgement, replacing
//     `rssiV-eff < CaptureThresholdDB`.
type CaptureModel interface {
	// SeparatePreambles reports whether the receiver locks distinct
	// preambles of superposed same-settings packets (disabling preamble
	// burial).
	SeparatePreambles() bool
	// Decodes reports whether a packet received at rssiV dBm survives a
	// same-settings interferer whose effective (spectrally truncated)
	// power is eff dBm.
	Decodes(rssiV, eff float64) bool
}

// DefaultSeparationDB is the power separation at which Curving's
// peak-ratio decoder distinguishes superposed chirps.
const DefaultSeparationDB = 1.0

// Curving is the CurvingLoRa-style concurrent-decode model: superposed
// same-settings packets each decode as long as their received powers are
// separated by at least SeparationDB — the dechirped energy peaks remain
// distinguishable — instead of the strongest one needing a full capture
// margin. Collisions within the separation band still destroy the packet,
// and a surviving interferer's energy still enters the victim's noise
// budget, so sensitivity-limited links keep failing realistically.
type Curving struct {
	// SeparationDB is the minimum |ΔRSSI| between superposed packets for
	// both to decode.
	SeparationDB float64
}

// NewCurving returns the model at the default separation threshold.
func NewCurving() Curving { return Curving{SeparationDB: DefaultSeparationDB} }

// SeparatePreambles implements CaptureModel: the dechirp stage locks each
// superposed packet separately, so no preamble is buried.
func (Curving) SeparatePreambles() bool { return true }

// Decodes implements CaptureModel: the packet survives when the power
// separation suffices in either direction.
func (c Curving) Decodes(rssiV, eff float64) bool {
	d := rssiV - eff
	if d < 0 {
		d = -d
	}
	return d >= c.SeparationDB
}
