package phy

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/alphawan/alphawan/internal/lora"
)

func TestDistance(t *testing.T) {
	if got := (Pt(0, 0)).Distance(Pt(3, 4)); got != 5 {
		t.Errorf("distance = %v, want 5", got)
	}
}

func TestPathLossGrowsWithDistance(t *testing.T) {
	e := Urban(1)
	e.ShadowSigma = 0 // isolate the deterministic part
	gw := Pt(0, 0)
	last := -math.MaxFloat64
	for _, d := range []float64{50, 100, 200, 500, 1000, 2000} {
		pl := e.PathLoss(gw, Pt(d, 0))
		if pl <= last {
			t.Errorf("path loss must grow with distance: PL(%v)=%v ≤ %v", d, pl, last)
		}
		last = pl
	}
}

func TestPathLossSymmetric(t *testing.T) {
	e := Urban(7)
	f := func(ax, ay, bx, by int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		return math.Abs(e.PathLoss(a, b)-e.PathLoss(b, a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShadowingDeterministic(t *testing.T) {
	e := Urban(3)
	a, b := Pt(10, 20), Pt(500, 700)
	if e.PathLoss(a, b) != e.PathLoss(a, b) {
		t.Error("same link must always see the same shadowing")
	}
	e2 := Urban(4)
	if e.PathLoss(a, b) == e2.PathLoss(a, b) {
		t.Error("different seeds should fade differently")
	}
}

func TestShadowingRoughlyNormal(t *testing.T) {
	e := Urban(5)
	var sum, sum2 float64
	n := 2000
	for i := 0; i < n; i++ {
		s := e.shadow(Pt(float64(i), 0), Pt(0, float64(i*3)))
		sum += s
		sum2 += s * s
	}
	mean := sum / float64(n)
	std := math.Sqrt(sum2/float64(n) - mean*mean)
	if math.Abs(mean) > 0.1 {
		t.Errorf("shadow mean = %v, want ≈ 0", mean)
	}
	if std < 0.85 || std > 1.15 {
		t.Errorf("shadow std = %v, want ≈ 1", std)
	}
}

func TestTestbedSNRRange(t *testing.T) {
	// Appendix D: testbed link SNRs span about -15…+5 dB. With 14 dBm TX
	// the near links must clear DR5 and the far links must reach only the
	// slow rates.
	e := Urban(1)
	gw := Pt(1050, 800) // center of the 2.1 km × 1.6 km area
	near := e.SNRdB(Link{TXPowerDBm: 14, TXPos: Pt(1100, 820), RXPos: gw, RXAntenna: Omni(3)})
	far := e.SNRdB(Link{TXPowerDBm: 14, TXPos: Pt(0, 0), RXPos: gw, RXAntenna: Omni(3)})
	if near < 5 {
		t.Errorf("near link SNR = %.1f, want ≥ 5 (DR5 capable)", near)
	}
	if far > 0 || far < -25 {
		t.Errorf("edge link SNR = %.1f, want in (-25, 0)", far)
	}
}

func TestOmniGainIsotropic(t *testing.T) {
	a := Omni(3)
	for _, b := range []float64{0, 1, 2, 3, -2} {
		if a.Gain(b) != 3 {
			t.Errorf("omni gain at bearing %v = %v, want 3", b, a.Gain(b))
		}
	}
	assertGainTowardMatchesGain(t, a)
}

// assertGainTowardMatchesGain holds GainToward to the bits of
// Gain(rx.Bearing(tx)) for transmitters all around the antenna.
func assertGainTowardMatchesGain(t *testing.T, a Antenna) {
	t.Helper()
	rx := Pt(700, -300)
	for k := 0; k < 64; k++ {
		ang := 2 * math.Pi * float64(k) / 64
		tx := Pt(rx.X+850*math.Cos(ang), rx.Y+850*math.Sin(ang))
		got, want := a.GainToward(rx, tx), a.Gain(rx.Bearing(tx))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("GainToward(%v, %v) = %v, Gain(Bearing) = %v", rx, tx, got, want)
		}
	}
}

func TestDirectionalPattern(t *testing.T) {
	a := Directional12dBi(0)
	if got := a.Gain(0); got != 12 {
		t.Errorf("boresight gain = %v, want 12", got)
	}
	// At half beamwidth (30°): 3 dB down.
	half := a.Gain(30 * math.Pi / 180)
	if math.Abs(half-(12-3)) > 0.01 {
		t.Errorf("gain at half beamwidth = %v, want 9", half)
	}
	// Figure 7: off-steer attenuation between 14 and 40 dB.
	back := a.Gain(math.Pi)
	if att := 12 - back; att != 40 {
		t.Errorf("front-to-back attenuation = %v, want 40", att)
	}
	side := a.Gain(math.Pi / 2) // 90° off
	att := 12 - side
	if att < 14 || att > 40 {
		t.Errorf("90° attenuation = %v, want within the measured 14–40 dB band", att)
	}
	assertGainTowardMatchesGain(t, a)
	assertGainTowardMatchesGain(t, Directional12dBi(2.5))
}

// TestDirectionalStillReceives reproduces the Figure 7 conclusion: even
// packets attenuated by the full 40 dB front-to-back ratio can stay above
// the demodulation floor thanks to LoRa sensitivity, so directional
// antennas alone do not suppress decoder contention.
func TestDirectionalStillReceives(t *testing.T) {
	e := Urban(1)
	e.ShadowSigma = 0
	gw := Pt(0, 0)
	node := Pt(-300, 0) // directly behind the boresight (+x)
	l := Link{TXPowerDBm: 20, TXPos: node, RXPos: gw, RXAntenna: Directional12dBi(0)}
	snr := e.SNRdB(l)
	if snr < lora.DemodFloorSNR(lora.SF12) {
		t.Errorf("behind-antenna SNR = %.1f, should still clear the SF12 floor %.1f",
			snr, lora.DemodFloorSNR(lora.SF12))
	}
	// But the attenuation relative to an omni must be large (≥ 14 dB net).
	omni := e.SNRdB(Link{TXPowerDBm: 20, TXPos: node, RXPos: gw, RXAntenna: Omni(12)})
	if omni-snr < 14 {
		t.Errorf("directional rejection = %.1f dB, want ≥ 14", omni-snr)
	}
}

func TestGainSymmetryProperty(t *testing.T) {
	a := Directional12dBi(0)
	f := func(raw int16) bool {
		b := float64(raw) / 1000
		return math.Abs(a.Gain(b)-a.Gain(-b)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleDiffWraps(t *testing.T) {
	if d := angleDiff(math.Pi-0.1, -math.Pi+0.1); math.Abs(math.Abs(d)-0.2) > 1e-9 {
		t.Errorf("angleDiff across ±π = %v, want ±0.2", d)
	}
}

func TestTXPowerIndex(t *testing.T) {
	if TXPowerIndexDBm(0) != 20 || TXPowerIndexDBm(7) != 6 {
		t.Error("TX power index table: idx0=20 dBm, idx7=6 dBm")
	}
	for i := uint8(0); i < NumTXPowers-1; i++ {
		if TXPowerIndexDBm(i) <= TXPowerIndexDBm(i+1) {
			t.Error("power must fall with index")
		}
	}
}

func TestMaxDR(t *testing.T) {
	// High SNR: DR5. Just above SF12 floor: DR0. Below: no link.
	if d, ok := MaxDR(10, 0); !ok || d != lora.DR5 {
		t.Errorf("MaxDR(10) = %v,%v", d, ok)
	}
	if d, ok := MaxDR(-19, 0); !ok || d != lora.DR0 {
		t.Errorf("MaxDR(-19) = %v,%v, want DR0", d, ok)
	}
	if _, ok := MaxDR(-25, 0); ok {
		t.Error("SNR below the SF12 floor must not close")
	}
	// Margin shifts the decision.
	// -5 dB with a 3 dB margin leaves -8 dB: below the SF7 floor (-7.5)
	// but above SF8 (-10), so DR4 is the fastest viable rate.
	if d, _ := MaxDR(-5, 3); d != lora.DR4 {
		t.Errorf("with 3 dB margin, -5 dB must select DR4, got %v", d)
	}
}

func TestMaxDRMonotoneProperty(t *testing.T) {
	f := func(raw int8) bool {
		snr := float64(raw) / 4
		d1, ok1 := MaxDR(snr, 0)
		d2, ok2 := MaxDR(snr+1, 0)
		if !ok1 {
			return true
		}
		return ok2 && d2 >= d1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingForSNR(t *testing.T) {
	r, ok := RingForSNR(0)
	if !ok || r.DR() != lora.DR5 {
		t.Errorf("ring at 0 dB = %v, want ring5/DR5", r)
	}
	r, ok = RingForSNR(-18)
	if !ok || r.DR() != lora.DR0 {
		t.Errorf("ring at -18 dB = %v, want ring0/DR0", r)
	}
	if _, ok := RingForSNR(-30); ok {
		t.Error("-30 dB must be unreachable")
	}
}
