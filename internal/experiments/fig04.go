package experiments

import (
	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/sim"
	"github.com/alphawan/alphawan/internal/tabulate"
)

var (
	fig04a = Experiment{
		ID:    "fig04a",
		Title: "Packet-loss causes vs user scale (single network)",
		Paper: "Channel contention dominates small networks; decoder contention overtakes it beyond ≈3,000 users.",
		Run:   runFig04a,
	}
	fig04b = Experiment{
		ID:    "fig04b",
		Title: "Packet-loss causes vs number of coexisting networks (1k users each)",
		Paper: "Inter-network decoder contention becomes the leading loss cause with ≥3 coexisting networks.",
		Run:   runFig04b,
	}
)

// lossRow extracts the Figure 4 breakdown from network stats.
func lossRow(s metrics.NetworkStats) (decIntra, decInter, chIntra, chInter, others, total float64) {
	decIntra = s.LossRatio(metrics.DecoderContentionIntra)
	decInter = s.LossRatio(metrics.DecoderContentionInter)
	chIntra = s.LossRatio(metrics.ChannelContentionIntra)
	chInter = s.LossRatio(metrics.ChannelContentionInter)
	others = s.LossRatio(metrics.Others)
	total = decIntra + decInter + chIntra + chInter + others
	return
}

func runFig04a(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 4a — loss ratio by cause vs user connections",
		"users", "decoder(intra)", "decoder(inter)", "channel(intra)", "channel(inter)", "others", "total loss",
	)}
	// Each user scale is an independent city simulation: fan the sweep
	// across the worker pool, assemble rows in sweep order.
	scales := prof.fig04aUsers
	stats := runner.Map(len(scales), func(i int) metrics.NetworkStats {
		n := sim.New(seed, cityEnv(seed))
		op := cityOperator(n, region.AS923, prof.cityGWs, prof.cityPhys, seed)
		cityLoad(n, []*sim.Operator{op}, scales[i], 0.01, prof.window)
		return n.Col.Network(op.ID)
	})
	crossover := 0
	for i, users := range scales {
		di, dx, ci, cx, ot, tot := lossRow(stats[i])
		res.Table.AddRow(users, di, dx, ci, cx, ot, tot)
		if crossover == 0 && di+dx > ci+cx && tot > 0.01 {
			crossover = users
		}
	}
	if crossover > 0 {
		res.Note("decoder contention overtakes channel contention at ≈%d users (paper: ≈3,000)", crossover)
	} else {
		res.Note("WARNING: decoder contention never dominated in the sweep")
	}
	return res
}

func runFig04b(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 4b — loss ratio by cause vs coexisting networks (1k users each)",
		"networks", "decoder(intra)", "decoder(inter)", "channel(intra)", "channel(inter)", "others", "total loss",
	)}
	type row struct{ di, dx, ci, cx, ot, tot float64 }
	rows := runner.Map(6, func(i int) row {
		nets := i + 1
		n := sim.New(seed, cityEnv(seed))
		var ops []*sim.Operator
		for k := 0; k < nets; k++ {
			ops = append(ops, cityOperator(n, region.AS923, 3, 48, seed+int64(k)))
		}
		cityLoad(n, ops, 1000, 0.01, prof.window)
		// Average the breakdown across networks (they are symmetric).
		var r row
		for _, op := range ops {
			a, b, c, d, e, f := lossRow(n.Col.Network(op.ID))
			r.di += a
			r.dx += b
			r.ci += c
			r.cx += d
			r.ot += e
			r.tot += f
		}
		fn := float64(nets)
		r.di, r.dx, r.ci, r.cx, r.ot, r.tot = r.di/fn, r.dx/fn, r.ci/fn, r.cx/fn, r.ot/fn, r.tot/fn
		return r
	})
	interDominatesAt := 0
	for i, r := range rows {
		nets := i + 1
		res.Table.AddRow(nets, r.di, r.dx, r.ci, r.cx, r.ot, r.tot)
		if interDominatesAt == 0 && r.dx > r.ci+r.cx && r.dx > r.di {
			interDominatesAt = nets
		}
	}
	if interDominatesAt > 0 {
		res.Note("inter-network decoder contention becomes the single largest cause from %d coexisting networks (paper: ≥3; our channel-collision model is more pessimistic, delaying the lead)", interDominatesAt)
	} else {
		res.Note("WARNING: inter-network decoder contention never dominated")
	}
	return res
}
