package experiments

import (
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/tabulate"
)

var fig16 = Experiment{
	ID:    "fig16",
	Title: "Spectrum sharing's impact on packet reception thresholds (20% overlap)",
	Paper: "Without coexistence the DR4 threshold sits near -13 dB; orthogonal-DR interference barely moves it; non-orthogonal interference on a 20%-overlap channel raises it by 3.3–3.7 dB.",
	Run:   runFig16,
}

// fig16Threshold measures link-1 reception over an SNR sweep by varying the
// master's distance; returns the lowest SNR at which reception succeeds
// (the effective threshold).
func fig16Threshold(seed int64, coexist bool, orth bool, intfPowerDBm float64) float64 {
	env := flatEnv(seed)
	// Sweep master distance from far (weak) to near (strong) and find
	// the weakest SNR that still decodes at DR4.
	threshold := 100.0
	for d := 3000.0; d >= 200; d -= 25 {
		sim := des.New(seed)
		med := medium.New(sim, env)
		masterCh := region.AS923.Channel(0)
		received := oneRadio(sim, med, []region.Channel{masterCh}, phy.Omni(3))
		snr := env.SNRdB(phy.Link{TXPowerDBm: 14, TXPos: phy.Pt(d, 0), RXPos: phy.Pt(0, 0), RXAntenna: phy.Omni(3)})
		sim.At(0, func() {
			med.Transmit(medium.Transmission{
				Node: 1, Network: 1, Sync: lora.SyncPublic,
				Channel: masterCh, DR: lora.DR4, PayloadLen: 13,
				PowerDBm: 14, Pos: phy.Pt(d, 0),
			})
			if coexist {
				intfDR := lora.DR4 // non-orthogonal
				if orth {
					intfDR = lora.DR2
				}
				intfCh := region.Channel{Center: masterCh.Center + 100_000, Bandwidth: lora.BW125}
				med.Transmit(medium.Transmission{
					Node: 2, Network: 2, Sync: lora.SyncPrivate,
					Channel: intfCh, DR: intfDR, PayloadLen: 13,
					// Near interferer: its 20%-overlap residue sits close
					// to the noise floor at the gateway.
					PowerDBm: intfPowerDBm, Pos: phy.Pt(45, 10),
				})
			}
		})
		sim.Run()
		if received[1] && snr < threshold {
			threshold = snr
		}
	}
	return threshold
}

func runFig16(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 16 — DR4 reception threshold under coexistence (20% channel overlap)",
		"condition", "reception threshold (dB)", "shift vs alone (dB)",
	)}
	alone := fig16Threshold(seed, false, false, 0)
	conds := []struct {
		name  string
		orth  bool
		power float64
	}{
		{"w/ net2, 4 dBm, orth DR", true, 4},
		{"w/ net2, 20 dBm, orth DR", true, 20},
		{"w/ net2, 4 dBm, non-orth DR", false, 4},
		{"w/ net2, 20 dBm, non-orth DR", false, 20},
	}
	res.Table.AddRow("w/o network 2", alone, 0.0)
	var nonOrthShift float64
	for _, c := range conds {
		th := fig16Threshold(seed, true, c.orth, c.power)
		shift := th - alone
		if !c.orth && c.power == 20 {
			nonOrthShift = shift
		}
		res.Table.AddRow(c.name, th, shift)
	}
	res.Note("baseline threshold %.1f dB (paper: ≈ -13 dB)", alone)
	res.Note("strong non-orthogonal interference shifts the threshold by %.1f dB (paper: 3.3–3.7 dB)", nonOrthShift)
	if nonOrthShift < 1 || nonOrthShift > 8 {
		res.Note("WARNING: threshold shift outside the paper's band")
	}
	return res
}
