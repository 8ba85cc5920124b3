// Package phy models the wireless link between LoRa nodes and gateways:
// geometry, log-distance path loss with deterministic per-link shadowing,
// antenna patterns (including the 12 dBi directional antenna of Figure 7),
// and the link budget that turns transmit power into receive SNR.
//
// The propagation constants are calibrated to the paper's testbed: a
// 2.1 km × 1.6 km urban area (Figure 11) whose packet traces span SNRs
// from -15 dB to +5 dB (Appendix D), i.e. links from DR5-capable near the
// gateway down to DR0-only at the cell edge.
package phy

import (
	"fmt"
	"math"

	"github.com/alphawan/alphawan/internal/lora"
)

// Point is a position in meters on the deployment plane.
type Point struct{ X, Y float64 }

// Distance returns the Euclidean distance in meters.
func (p Point) Distance(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Bearing returns the angle from p to q in radians, in (-π, π].
func (p Point) Bearing(q Point) float64 {
	return math.Atan2(q.Y-p.Y, q.X-p.X)
}

// TXPowerIndexDBm maps the LoRaWAN TX power index (0..7) to dBm for the
// 915/923 MHz bands: index 0 is the maximum (20 dBm in our profile, as
// used by the paper's Figure 16 "20 dBm" setting), each step -2 dB.
func TXPowerIndexDBm(idx uint8) float64 { return 20 - 2*float64(idx) }

// NumTXPowers is the number of usable TX power indices.
const NumTXPowers = 8

// Environment holds the propagation model parameters.
type Environment struct {
	// PL0 is the path loss (dB) at the reference distance D0 (meters).
	PL0 float64
	D0  float64
	// Exponent is the log-distance path-loss exponent (≈3.5 urban).
	Exponent float64
	// ShadowSigma is the standard deviation (dB) of lognormal shadowing.
	ShadowSigma float64
	// ShadowClamp, when positive, truncates the standard-normal shadow
	// draw to ±ShadowClamp (in σ units). Zero keeps the legacy unclamped
	// draw, whose tail is bounded only by the Box-Muller u1 guard (see
	// MaxShadowDB). City-scale sharded runs clamp at 3σ so that a
	// transmission's maximum reach — and therefore the set of grid cells
	// its interference must be exported to — stays tightly bounded.
	ShadowClamp float64
	// Seed makes the per-link shadowing deterministic.
	Seed int64
}

// Urban returns propagation parameters matching the paper's testbed:
// with 14 dBm transmit power a link at ~100 m sees ≈ +5 dB SNR and a
// blocked 2 km link falls to ≈ -15…-20 dB, reproducing the DR mix of
// Figure 11.
func Urban(seed int64) Environment {
	return Environment{PL0: 91, D0: 40, Exponent: 3.5, ShadowSigma: 4, Seed: seed}
}

// Metro returns the propagation profile of the city-scale sharded runs
// (the `city-1M` sweep): heavier attenuation than Urban (a 105 dB
// reference loss and a 3.6 exponent), with shadowing clamped at 3σ so a
// transmission's worst-case reach — and therefore the set of grid cells
// its interference must be exported to — is hard-bounded. With 14 dBm TX the DR0 demodulation
// floor closes at ≈900 m, giving the ~1.2 km gateway grids of the city
// experiments realistic edge users at every data rate.
func Metro(seed int64) Environment {
	return Environment{PL0: 105, D0: 40, Exponent: 3.6, ShadowSigma: 5, ShadowClamp: 3, Seed: seed}
}

// PathLoss returns the deterministic path loss in dB between two points,
// including the frozen shadowing term for that link. Shadowing is a
// function of both endpoints, so the same link always sees the same value
// (static deployment) while different links fade independently.
func (e Environment) PathLoss(a, b Point) float64 {
	d := a.Distance(b)
	if d < 1 {
		d = 1
	}
	pl := e.PL0 + 10*e.Exponent*math.Log10(d/e.D0)
	return pl + e.shadow(a, b)*e.ShadowSigma
}

// shadow returns a deterministic standard-normal draw for the unordered
// link (a, b), truncated to ±ShadowClamp σ when the clamp is set.
func (e Environment) shadow(a, b Point) float64 {
	// Hash the two endpoints symmetrically so shadow(a,b) == shadow(b,a).
	ha := hashPoint(a)
	hb := hashPoint(b)
	h := ha + hb + uint64(e.Seed)*0x9E3779B97F4A7C15
	// Two mixed 32-bit halves → Box-Muller.
	h = mix(h)
	u1 := float64(h>>11) / float64(1<<53)
	h = mix(h + 0x9E3779B97F4A7C15)
	u2 := float64(h>>11) / float64(1<<53)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	if c := e.ShadowClamp; c > 0 {
		if z > c {
			z = c
		} else if z < -c {
			z = -c
		}
	}
	return z
}

// maxBoxMullerZ is the exact bound of the unclamped shadow draw: u1 is
// clamped to ≥ 1e-12 before the Box-Muller transform and |cos| ≤ 1, so
// |z| never exceeds sqrt(-2·ln(1e-12)) ≈ 7.43.
var maxBoxMullerZ = math.Sqrt(-2 * math.Log(1e-12))

// MaxShadowDB returns a hard upper bound on the shadowing term (in dB)
// any link in this environment can see — ShadowClamp·σ when clamped,
// otherwise the Box-Muller bound above. The sharded medium uses it to
// bound a transmission's best-case receive power at a distant grid cell.
func (e Environment) MaxShadowDB() float64 {
	z := maxBoxMullerZ
	if e.ShadowClamp > 0 && e.ShadowClamp < z {
		z = e.ShadowClamp
	}
	return z * e.ShadowSigma
}

func hashPoint(p Point) uint64 {
	return mix(math.Float64bits(p.X)) + mix(math.Float64bits(p.Y)^0xABCDEF)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Antenna describes a gateway antenna pattern.
type Antenna struct {
	// GainDBi is the boresight gain.
	GainDBi float64
	// Directional antennas attenuate off-boresight signals; Omni has
	// Beamwidth 0 meaning no directivity.
	Directional bool
	// BoresightRad is the steering direction.
	BoresightRad float64
	// BeamwidthRad is the -3 dB beamwidth.
	BeamwidthRad float64
	// FrontToBackDB is the maximum attenuation behind the antenna.
	// The paper's RAK 12 dBi panel shows 14–40 dB off-steer attenuation
	// (Figure 7).
	FrontToBackDB float64
}

// Omni returns an omnidirectional antenna with the given gain.
func Omni(gainDBi float64) Antenna { return Antenna{GainDBi: gainDBi} }

// Directional12dBi returns the RAK 12 dBi directional panel of Figure 7:
// 60° beamwidth, up to 40 dB front-to-back attenuation.
func Directional12dBi(boresightRad float64) Antenna {
	return Antenna{
		GainDBi:       12,
		Directional:   true,
		BoresightRad:  boresightRad,
		BeamwidthRad:  60 * math.Pi / 180,
		FrontToBackDB: 40,
	}
}

// Gain returns the antenna gain in dBi toward the given bearing.
// For directional antennas the pattern rolls off quadratically to the
// front-to-back limit, reproducing the 14–40 dB attenuation band the
// paper measured off the steered direction.
func (a Antenna) Gain(bearingRad float64) float64 {
	if !a.Directional {
		return a.GainDBi
	}
	// Angular distance from boresight normalized to [0, π].
	d := math.Abs(angleDiff(bearingRad, a.BoresightRad))
	// 3 dB down at half the beamwidth; quadratic roll-off, clamped.
	x := d / (a.BeamwidthRad / 2)
	att := 3 * x * x
	if att > a.FrontToBackDB {
		att = a.FrontToBackDB
	}
	return a.GainDBi - att
}

// GainToward returns the gain of an antenna sited at rx toward a
// transmitter at tx: Gain(rx.Bearing(tx)), without the atan2 when the
// pattern is omnidirectional and would ignore the bearing.
func (a Antenna) GainToward(rx, tx Point) float64 {
	if !a.Directional {
		return a.GainDBi
	}
	return a.Gain(rx.Bearing(tx))
}

func angleDiff(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d < -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

// Link computes the received power and SNR of a transmission.
type Link struct {
	TXPowerDBm float64
	TXPos      Point
	RXPos      Point
	RXAntenna  Antenna
}

// RXPowerDBm returns the received power at the gateway.
func (e Environment) RXPowerDBm(l Link) float64 {
	return l.TXPowerDBm - e.PathLoss(l.TXPos, l.RXPos) + l.RXAntenna.GainToward(l.RXPos, l.TXPos)
}

// SNRdB returns the received SNR over a 125 kHz channel.
func (e Environment) SNRdB(l Link) float64 {
	return e.RXPowerDBm(l) - lora.NoiseFloorDBm(lora.BW125)
}

// MaxDR returns the fastest data rate whose demodulation floor the link
// SNR clears with the given margin, or (DR0, false) when even SF12 does
// not close. This is the SNR→DR mapping that both the standard ADR and
// AlphaWAN's planner use.
func MaxDR(snrDB, marginDB float64) (lora.DR, bool) {
	for d := lora.DR5; d >= lora.DR0; d-- {
		if snrDB-marginDB >= lora.DemodFloorSNR(d.SF()) {
			return d, true
		}
	}
	return lora.DR0, false
}

// DistanceRing discretizes node-gateway reachability for the CP problem
// (§4.3.1 "we simplify the communication ranges of end nodes into various
// discrete distances, denoted by a set DR"). Ring l means "reachable with
// data rate l or slower": ring 0 is the widest (DR0-only edge links) and
// ring 5 the tightest (DR5-capable).
type DistanceRing int

// NumDistanceRings is the number of discrete transmission distances; it
// equals the number of data rates since range is set by the SF in use.
const NumDistanceRings = lora.NumDRs

// RingForSNR returns the tightest ring whose data rate the link supports.
func RingForSNR(snrDB float64) (DistanceRing, bool) {
	d, ok := MaxDR(snrDB, 0)
	return DistanceRing(d), ok
}

// DR returns the data rate corresponding to the ring.
func (r DistanceRing) DR() lora.DR { return lora.DR(r) }

func (r DistanceRing) String() string { return fmt.Sprintf("ring%d", int(r)) }

// Pt is a convenience constructor for Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }
