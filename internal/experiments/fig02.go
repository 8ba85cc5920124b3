package experiments

import (
	"math"

	"github.com/alphawan/alphawan/internal/baseline"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/sim"
	"github.com/alphawan/alphawan/internal/tabulate"
)

var (
	fig02a = Experiment{
		ID:    "fig02a",
		Title: "Capacity gaps of an operational LoRaWAN (1 vs 3 gateways vs oracle)",
		Paper: "TTN receives at most 16 concurrent packets — one third of the 48-user oracle — and 3 homogeneous gateways do not improve it.",
		Run:   runFig02a,
	}
	fig02b = Experiment{
		ID:    "fig02b",
		Title: "Two coexisting LoRaWANs: received packets always sum to the decoder pool",
		Paper: "Across transmission settings, the two networks' successful receptions always add up to 16.",
		Run:   runFig02b,
	}
)

func runFig02a(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 2a — concurrent users supported",
		"#concurrent TX", "oracle", "GW x 1", "GW x 3",
	)}
	capAt := func(gws, users int) int {
		return clusterProbe(seed, cotsModel, baseline.StandardConfigs(region.AS923, gws, 0), users, region.AS923.AllChannels())
	}
	maxSeen1, maxSeen3 := 0, 0
	for _, users := range []int{1, 8, 16, 24, 32, 40, 48, 56, 64} {
		oracle := min(users, region.AS923.TheoreticalCapacity())
		c1 := capAt(1, users)
		c3 := capAt(3, users)
		maxSeen1 = max(maxSeen1, c1)
		maxSeen3 = max(maxSeen3, c3)
		res.Table.AddRow(users, oracle, c1, c3)
	}
	res.Note("single-gateway capacity saturates at %d (paper: 16)", maxSeen1)
	res.Note("3 homogeneous gateways saturate at %d — no improvement (paper: same)", maxSeen3)
	return res
}

func runFig02b(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 2b — two coexisting networks",
		"setting", "net1 received", "net1 dropped", "net2 received", "net2 dropped", "total received",
	)}
	settings := []struct{ n1, n2 int }{{24, 24}, {16, 32}, {36, 12}}
	allSum16 := true
	for si, s := range settings {
		n := sim.New(seed+int64(si), flatEnv(seed))
		counts := []int{s.n1, s.n2}
		for k, op := range soloGateways(n, 2) {
			// The two networks split the 48 distinct (channel, DR) pairs
			// so no packets collide — the paper's controlled settings use
			// "different sub-channels and data rates". DR cycling keeps
			// the lock-on order interleaved between the networks.
			start := k * counts[0]
			for i := 0; i < counts[k]; i++ {
				pair := start + i
				ch := (pair / lora.NumDRs) % 8
				dr := lora.DR(pair % lora.NumDRs)
				ang := 2 * math.Pi * float64(pair) / 48
				op.AddNode(phy.Pt(150*math.Cos(ang), 150*math.Sin(ang)),
					[]region.Channel{region.AS923.Channel(ch)}, dr)
			}
		}
		got := n.CapacityProbe(5 * des.Second)
		tot := sim.TotalCapacity(got)
		if tot != 16 {
			allSum16 = false
		}
		res.Table.AddRow(si+1, got[1], counts[0]-got[1], got[2], counts[1]-got[2], tot)
	}
	if allSum16 {
		res.Note("total receptions equal 16 in every setting (paper: 'always adds up to 16')")
	} else {
		res.Note("WARNING: totals deviate from the 16-packet budget")
	}
	return res
}
