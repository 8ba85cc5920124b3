package experiments

import (
	"fmt"

	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/tabulate"
)

var (
	fig05a = Experiment{
		ID:    "fig05a",
		Title: "Strategy ①: fewer channels per gateway concentrate decoder resources",
		Paper: "Five gateways in 1.6 MHz: total capacity grows from 16 to 48 concurrent users as channels per gateway drop from 8 to 2.",
		Run:   runFig05a,
	}
	fig05b = Experiment{
		ID:    "fig05b",
		Title: "Strategy ②: heterogeneous channel configurations across 3 gateways",
		Paper: "Standard homogeneous plans cap at 16; heterogeneous settings lift capacity to 24 and beyond.",
		Run:   runFig05b,
	}
)

// blockConfig builds a config covering `count` consecutive channels
// starting at `start` (mod 8) of the AS923 band.
func blockConfig(start, count int) radio.Config {
	var cfg radio.Config
	for k := 0; k < count; k++ {
		cfg.Channels = append(cfg.Channels, region.AS923.Channel((start+k)%8))
	}
	return cfg
}

func runFig05a(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 5a — capacity vs channels per gateway (5 GWs, 1.6 MHz)",
		"#channels per GW", "concurrent users",
	)}
	caps := map[int]int{}
	for _, chPerGW := range []int{8, 4, 2} {
		cfgs := make([]radio.Config, 5)
		for i := range cfgs {
			cfgs[i] = blockConfig(i*chPerGW, chPerGW)
		}
		caps[chPerGW] = clusterProbe(seed, cotsModel, cfgs, 48, region.AS923.AllChannels())
		res.Table.AddRow(chPerGW, caps[chPerGW])
	}
	res.Note("capacity %d → %d → %d as channels per gateway fall 8 → 4 → 2 (paper: 16 → 48)",
		caps[8], caps[4], caps[2])
	if !(caps[2] > caps[4] && caps[4] > caps[8]) {
		res.Note("WARNING: capacity did not increase monotonically")
	}
	return res
}

func runFig05b(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 5b — heterogeneous channel adoption (3 GWs)",
		"frequency setting", "GW1", "GW2", "GW3", "concurrent users",
	)}
	type setting struct {
		name   string
		blocks [3][2]int // (start, count) per gateway
	}
	settings := []setting{
		{"standard", [3][2]int{{0, 8}, {0, 8}, {0, 8}}},
		{"setting 1", [3][2]int{{0, 8}, {0, 8}, {0, 4}}},
		{"setting 2", [3][2]int{{0, 8}, {0, 4}, {4, 4}}},
	}
	var caps []int
	for _, s := range settings {
		cfgs := make([]radio.Config, 3)
		desc := make([]string, 3)
		for i, b := range s.blocks {
			cfgs[i] = blockConfig(b[0], b[1])
			desc[i] = chanDesc(b[0], b[1])
		}
		c := clusterProbe(seed, cotsModel, cfgs, 48, region.AS923.AllChannels())
		caps = append(caps, c)
		res.Table.AddRow(s.name, desc[0], desc[1], desc[2], c)
	}
	res.Note("standard %d → heterogeneous %d and %d concurrent users (paper: 16 → 24)",
		caps[0], caps[1], caps[2])
	if !(caps[1] > caps[0] && caps[2] > caps[1]) {
		res.Note("WARNING: heterogeneity did not monotonically improve capacity")
	}
	return res
}

func chanDesc(start, count int) string {
	return fmt.Sprintf("CH%d-%d", start, start+count-1)
}
