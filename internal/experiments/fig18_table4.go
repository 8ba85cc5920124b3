package experiments

import (
	"fmt"

	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/tabulate"
)

var (
	fig18 = Experiment{
		ID:    "fig18",
		Title: "LoRaWAN spectrum allocations across countries/regions",
		Paper: "Over 70% of countries and regions authorize less than 6.5 MHz for LoRaWAN.",
		Run:   runFig18,
	}
	table4 = Experiment{
		ID:    "table4",
		Title: "Commercial gateway capacities: decoders vs theoretical channel capacity",
		Paper: "No COTS gateway has enough decoders for its spectrum: practical capacity (8–32) falls far below theoretical (54–108).",
		Run:   runTable4,
	}
)

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

func runFig18(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 18 — CDF of per-region LoRaWAN spectrum",
		"bandwidth (MHz)", "fraction of regions below",
	)}
	for _, mhz := range []float64{1, 2, 4, 6.5, 8, 12, 16, 20, 24, 28} {
		res.Table.AddRow(mhz, region.FractionBelow(region.SpectrumDataset, mhz))
	}
	below := region.FractionBelow(region.SpectrumDataset, 6.5)
	res.Note("%.0f%% of regions authorize < 6.5 MHz (paper: >70%%)", below*100)
	if below <= 0.7 {
		res.Note("WARNING: dataset does not reproduce the >70%% claim")
	}
	return res
}

func runTable4(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Table 4 — COTS gateway capacities",
		"manufacturer", "model", "chipset", "Rx chains", "decoders", "theoretical", "practical",
	)}
	allShort := true
	for _, m := range radio.Models {
		res.Table.AddRow(m.Manufacturer, m.Model, m.Chipset.Name,
			m.Chipset.RxChains, m.Chipset.Decoders,
			m.TheoreticalCapacity(), m.PracticalCapacity())
		if m.PracticalCapacity() >= m.TheoreticalCapacity() {
			allShort = false
		}
	}
	if allShort {
		res.Note("every model's decoder pool falls short of its channels' theoretical capacity — the physical root of the decoder contention problem")
	} else {
		res.Note("WARNING: some model has enough decoders?")
	}
	return res
}
