package experiments

import (
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/tabulate"
)

var table1 = Experiment{
	ID:    "table1",
	Title: "Strategy survey: capacity effect of each design principle (§4.2)",
	Paper: "Strategies ①/②/⑦/⑧ are deployable on COTS hardware; ③ needs new gateways; ④ adds capacity but not per-spectrum efficiency; ⑤/⑥ are blunted by LoRa sensitivity.",
	Run:   runTable1,
}

func runTable1(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Table 1 — strategy survey (3 gateways, 48 users, 1.6 MHz unless noted)",
		"strategy", "capacity", "per-MHz", "COTS-deployable",
	)}
	// probe measures a gateway fleet described by (model, configs)
	// against 48 ring users on the 1.6 MHz band.
	probe := func(model radio.GatewayModel, cfgs ...radio.Config) int {
		return clusterProbe(seed, model, cfgs, 48, region.AS923.AllChannels())
	}
	full := radio.Config{Channels: region.AS923.AllChannels()}

	// Baseline: homogeneous SX1302 gateways.
	base := probe(cotsModel, full, full, full)
	res.Table.AddRow("baseline (standard plans)", base, float64(base)/1.6, "—")

	// ① fewer channels per gateway (3 GWs on disjoint thirds).
	s1 := probe(cotsModel, blockConfig(0, 3), blockConfig(3, 3), blockConfig(6, 2))
	res.Table.AddRow("① fewer channels per GW", s1, float64(s1)/1.6, "yes")

	// ② heterogeneous overlapping configurations.
	s2 := probe(cotsModel, blockConfig(0, 8), blockConfig(0, 4), blockConfig(4, 4))
	res.Table.AddRow("② heterogeneous channels", s2, float64(s2)/1.6, "yes")

	// ③ more decoders per gateway: the 32-decoder SX1303 product.
	s3 := probe(radio.Models[4], full) // one RAK7289CV2
	res.Table.AddRow("③ 32-decoder gateway (×1)", s3, float64(s3)/1.6, "no (hardware upgrade)")

	// ④ more spectrum: same 3 homogeneous gateways, double the band.
	wide := region.Band{
		Name: "wide", Start: region.AS923.Start, Spacing: region.AS923.Spacing,
		Channels: 16, BW: lora.BW125, DutyCycle: 0.01,
	}
	halves := make([]radio.Config, 3)
	for i := range halves {
		halves[i].Channels = wide.SubBand(8*(i%2), 8).AllChannels()
	}
	s4 := clusterProbe(seed, cotsModel, halves, 96, wide.AllChannels())
	res.Table.AddRow("④ double spectrum (3.2 MHz)", s4, float64(s4)/3.2, "spectrum-limited")

	res.Note("① lifts capacity %d → %d and ② %d → %d within the same spectrum (deployable on COTS gateways)", base, s1, base, s2)
	res.Note("③ doubles a single gateway's budget to %d but requires new hardware; ④ reaches %d users yet its per-MHz efficiency (%.1f) matches the baseline's (%.1f) — more spectrum does not fix the decoder bottleneck", s3, s4, float64(s4)/3.2, float64(base)/1.6)
	res.Note("⑤ (ADR cell shrink) and ⑥ (directional antennas) are quantified by fig06 and fig07: both attenuate but cannot stop decoder consumption")
	return res
}
