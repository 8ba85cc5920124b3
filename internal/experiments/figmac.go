package experiments

import (
	"github.com/alphawan/alphawan/internal/mac"
	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/soa"
	"github.com/alphawan/alphawan/internal/tabulate"
)

var figMac = Experiment{
	ID:    "fig-mac",
	Title: "MAC strategy matrix: {standard, CIC, AlphaWAN} × {pure, slotted, capture} on both simulation paths",
	Paper: "The coexistence principles compose with the access layer: the paper's channel planning assumes ALOHA, but slotted overlays and capture-capable concurrent decoding each attack a different loss cause, so the right pairing beats either alone.",
	Run:   runFigMac,
}

// figMacStrats is the coexistence-strategy axis of the matrix, with the
// display names shared by the node path (fig13 machinery) and the city
// path (cityStrategies).
var figMacStrats = []struct {
	name string
	node fig13Strategy
	city cityStrategy
}{
	{"standard", stratNoADR, cityStrategy{name: "standard"}},
	{"cic", stratCIC, cityStrategy{name: "cic", cic: true}},
	{"alphawan", stratAlphaWAN, cityStrategy{name: "alphawan", colored: true, cic: true}},
}

func runFigMac(seed int64) *Result {
	kinds := mac.Kinds()
	headers := []string{"path", "strategy"}
	for _, k := range kinds {
		headers = append(headers, k.String())
	}
	res := &Result{Table: tabulate.New(
		"MAC matrix — PRR per {path, strategy} × MAC strategy",
		headers...,
	)}

	// prr[path][strategy][kind] backs the synergy analysis below.
	prr := map[string]map[string]map[mac.Kind]float64{"node": {}, "city": {}}

	// Node path: every (strategy, MAC) pair is an independent object-path
	// simulation at one emulated user scale; the 9 cells fan across the
	// worker pool like fig13's grid does.
	users := prof.figMacUsers
	nodeCells := runner.Map(len(figMacStrats)*len(kinds), func(i int) float64 {
		strat, kind := figMacStrats[i/len(kinds)], kinds[i%len(kinds)]
		return fig13Run(seed, strat.node, kind, users).PRR()
	})
	for si, strat := range figMacStrats {
		row := []any{"node", strat.name}
		prr["node"][strat.name] = map[mac.Kind]float64{}
		for ki, k := range kinds {
			v := nodeCells[si*len(kinds)+ki]
			prr["node"][strat.name][k] = v
			row = append(row, sprintf("%.3f", v))
		}
		res.Table.AddRow(row...)
	}

	// City path: the same matrix on the sharded SoA core at the smoke
	// scale. Runs go sequentially — the core parallelizes internally.
	devices := prof.citySmoke
	for _, strat := range figMacStrats {
		row := []any{"city", strat.name}
		prr["city"][strat.name] = map[mac.Kind]float64{}
		for _, k := range kinds {
			var slots *mac.SlotGrid
			var capture mac.CaptureModel
			switch k {
			case mac.KindSlotted:
				slots = mac.NewSlotGrid(seed, 10+soa.LoRaWANOverhead)
			case mac.KindCapture:
				capture = mac.NewCurving()
			}
			c := cityCore(seed, devices, strat.city, slots, capture)
			st := c.Run(prof.cityWindow)
			v := st.Network(0).PRR()
			prr["city"][strat.name][k] = v
			row = append(row, sprintf("%.3f", v))
		}
		res.Table.AddRow(row...)
		res.Devices += devices * len(kinds)
	}

	// Synergy: a (strategy, MAC) pairing earns the claim when it beats
	// both of its components alone — the same strategy under pure ALOHA
	// and the standard strategy under the same MAC — on the same path.
	type combo struct {
		path, strat       string
		kind              mac.Kind
		prr, dStrat, dMAC float64
	}
	var best *combo
	for _, path := range []string{"node", "city"} {
		for _, strat := range figMacStrats[1:] { // standard is the MAC-only baseline
			for _, k := range kinds[1:] { // pure is the strategy-only baseline
				v := prr[path][strat.name][k]
				dStrat := v - prr[path][strat.name][mac.KindPure]
				dMAC := v - prr[path]["standard"][k]
				if dStrat > 0 && dMAC > 0 && (best == nil || v > best.prr) {
					best = &combo{path: path, strat: strat.name, kind: k, prr: v, dStrat: dStrat, dMAC: dMAC}
				}
			}
		}
	}
	if best != nil {
		res.Note("synergy: %s+%s on the %s path reaches PRR %.3f — +%.3f over %s alone (pure ALOHA) and +%.3f over %s alone (standard plans)",
			best.strat, best.kind, best.path, best.prr, best.dStrat, best.strat, best.dMAC, best.kind)
	} else {
		res.Note("WARNING: no (strategy, MAC) pairing beat both of its components alone")
	}
	res.Note("the two paths agree on ordering where they share a cell: planned coexistence dominates the strategy axis while the MAC axis redistributes the residual same-plan collisions")
	return res
}
