package main

import (
	"strings"
	"testing"

	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/netserver"
	"github.com/alphawan/alphawan/internal/udpfwd"
)

// A consistent set of live counters: 1000 datagrams sent, 10 lost in the
// kernel, 40 dropped on a full ring, 3 rxpks unparseable.
func consistentLive() (int64, int64, udpfwd.BridgeStats, netserver.ServerStats) {
	b := udpfwd.BridgeStats{
		Datagrams: 990, OverloadDrops: 40, ParseErrors: 3,
		Uplinks: 8*950 - 3, DownlinksSent: 12, DownlinkAcks: 12,
	}
	s := netserver.ServerStats{
		Uplinks: 8*950 - 3, Delivered: 5400, Duplicates: 2190, BadMIC: 1, Unknown: 2, Replays: 4,
		ADRCommands: 12,
	}
	return 1000, 5400, b, s
}

func TestLiveConservationHolds(t *testing.T) {
	sent, served, b, s := consistentLive()
	r := newReport("w")
	checkConservation(r, liveEquations(sent, served, b, s))
	if len(r.problems) != 0 {
		t.Errorf("consistent counters refused: %v", r.problems)
	}
}

func TestLiveConservationRejectsPlantedMiscount(t *testing.T) {
	plant := map[string]func(sent, served *int64, b *udpfwd.BridgeStats, s *netserver.ServerStats){
		"a copy vanished between bridge and server": func(_, _ *int64, _ *udpfwd.BridgeStats, s *netserver.ServerStats) {
			s.Uplinks--
			s.Duplicates--
		},
		"a duplicate counted twice": func(_, _ *int64, _ *udpfwd.BridgeStats, s *netserver.ServerStats) { s.Duplicates++ },
		"an rxpk lost in a worker":  func(_, _ *int64, b *udpfwd.BridgeStats, _ *netserver.ServerStats) { b.ParseErrors-- },
		"a frame served twice":      func(_, served *int64, _ *udpfwd.BridgeStats, _ *netserver.ServerStats) { *served++ },
		"a command without a downlink": func(_, _ *int64, b *udpfwd.BridgeStats, _ *netserver.ServerStats) {
			b.DownlinksSent--
		},
	}
	for name, mutate := range plant {
		sent, served, b, s := consistentLive()
		mutate(&sent, &served, &b, &s)
		r := newReport("w")
		checkConservation(r, liveEquations(sent, served, b, s))
		if len(r.problems) == 0 {
			t.Errorf("%s: not detected", name)
		}
		for _, p := range r.problems {
			if !strings.HasPrefix(p, "conservation: ") {
				t.Errorf("%s: unexpected problem text %q", name, p)
			}
		}
	}
}

func TestSimulatorConservation(t *testing.T) {
	s := metrics.NetworkStats{Sent: 100, Received: 60}
	s.Losses[metrics.DecoderContentionIntra] = 25
	s.Losses[metrics.Others] = 15
	r := newReport("w")
	if gap := conserved(r, "net", s); gap != 0 || len(r.problems) != 0 {
		t.Errorf("balanced stats: gap %d, problems %v", gap, r.problems)
	}
	s.Losses[metrics.Others] = 12 // three packets with no outcome
	if gap := conserved(r, "net", s); gap != 3 || len(r.problems) != 1 {
		t.Errorf("planted miscount: gap %d, problems %v", gap, r.problems)
	}
}
