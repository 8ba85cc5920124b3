package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/frame"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/netserver"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/udpfwd"
)

// This file mirrors cmd/alphawan-server/main.go line for line — the
// composition that ships: ADR on, default workers and MaxLog, the lastSeen
// RX1 anchor noted per uplink copy under one mutex, Commands answered
// through BuildCommandDownlink and SendDownlink. The binary's wiring lives
// in package main and cannot be imported; when it moves into a package
// (ROADMAP item 1) a later benchmark change re-points this file at it.

// lastSeen is the server's per-device RX1 anchor, copied verbatim.
type lastSeen struct {
	mu  sync.Mutex
	gws map[frame.DevAddr]udpfwd.UplinkFrame
}

func (l *lastSeen) note(addr frame.DevAddr, up *udpfwd.UplinkFrame) {
	l.mu.Lock()
	u := *up
	u.Raw = nil // scratch buffer, not ours to retain
	l.gws[addr] = u
	l.mu.Unlock()
}

func (l *lastSeen) get(addr frame.DevAddr) (udpfwd.UplinkFrame, bool) {
	l.mu.Lock()
	u, ok := l.gws[addr]
	l.mu.Unlock()
	return u, ok
}

// liveProbe is the traced run's instrumentation at the wiring seams. The
// counters are atomics because the bridge calls the handler from all its
// workers; one handler call in probeSample also leaves spans.
type liveProbe struct {
	tr                    *tracer
	noteNs, handleNs      atomic.Int64
	copies                atomic.Int64
	downlinkNs, downlinks atomic.Int64
	// entry, when set, is told the frame tag and the handler entry time of
	// every copy (the queue-wait measurement).
	entry func(tmst uint32, at time.Time)
}

const probeSample = 4096

// copy accounts one handler call: t0 entry, t1 after the lastSeen note,
// t2 after HandleUplink.
func (p *liveProbe) copy(tmst uint32, t0, t1, t2 time.Time) {
	p.noteNs.Add(t1.Sub(t0).Nanoseconds())
	p.handleNs.Add(t2.Sub(t1).Nanoseconds())
	if p.copies.Add(1)%probeSample == 0 {
		req := int64(tmst)
		root := p.tr.add("udpfwd.handler", 0, req, t0, t2)
		p.tr.add("wiring.note", root, req, t0, t1)
		p.tr.add("netserver.HandleUplink", root, req, t1, t2)
	}
}

// liveStack is one running server composition.
type liveStack struct {
	srv    *netserver.Server
	bridge *udpfwd.BatchBridge
	seen   *lastSeen
}

// newLiveStack provisions `devices` sessions the way the binary does and
// starts the bridge on a loopback port. served is subscribed to the
// server's deliveries; probe is nil in the untraced run.
//
// One departure from the binary's order: both subscriptions are made
// before the bridge starts its workers, and the Commands subscriber finds
// the bridge through an atomic pointer. The binary subscribes after
// NewBatchBridge, which is harmless there (no gateway has spoken yet) but
// is a data race to the race detector, and the harness's tests run under
// it.
func newLiveStack(devices int, served func(netserver.Data), probe *liveProbe) (*liveStack, error) {
	srv := netserver.New()
	srv.ADREnabled = true
	for i := 0; i < devices; i++ {
		nwk, app, err := liveKeys(i)
		if err != nil {
			return nil, fmt.Errorf("live: provision: %w", err)
		}
		srv.Register(liveAddr(i), nwk, app, lora.DR0, 0)
	}
	st := &liveStack{srv: srv, seen: &lastSeen{gws: make(map[frame.DevAddr]udpfwd.UplinkFrame)}}

	handle := func(up *udpfwd.UplinkFrame) {
		var t0, t1 time.Time
		if probe != nil {
			t0 = time.Now()
			probe.entry(up.Tmst, t0)
		}
		meta := netserver.UplinkMeta{
			Gateway: int(up.EUI),
			Freq:    region.Hz(up.FreqHz),
			DR:      up.DR,
			RSSIdBm: float64(up.RSSIdBm),
			SNRdB:   up.SNRdB,
			At:      des.Time(up.Tmst),
		}
		if len(up.Raw) >= 5 {
			addr := frame.DevAddr(uint32(up.Raw[1]) | uint32(up.Raw[2])<<8 |
				uint32(up.Raw[3])<<16 | uint32(up.Raw[4])<<24)
			st.seen.note(addr, up)
		}
		if probe != nil {
			t1 = time.Now()
		}
		// The binary drops the error unless -verbose; rejects are read
		// from Server.Stats.
		_ = srv.HandleUplink(up.Raw, meta)
		if probe != nil {
			probe.copy(up.Tmst, t0, t1, time.Now())
		}
	}

	srv.Served.Subscribe(served)
	var bridge atomic.Pointer[udpfwd.BatchBridge]
	srv.Commands.Subscribe(func(c netserver.Command) {
		var t0 time.Time
		if probe != nil {
			t0 = time.Now()
		}
		up, ok := st.seen.get(c.Dev.Addr)
		if !ok {
			return // never heard live; nowhere to transmit
		}
		raw, err := srv.BuildCommandDownlink(c.Dev, c.Cmds)
		if err != nil {
			return
		}
		tx := udpfwd.TXPK{
			Tmst: up.Tmst + uint32(netserver.RX1Delay/des.Microsecond),
			Freq: float64(up.FreqHz) / 1e6,
			RFCh: up.RFCh,
			Powe: 14,
			Modu: "LORA",
			Datr: udpfwd.DatrString(up.DR),
			CodR: "4/5",
			Size: len(raw),
			Data: udpfwd.EncodeData(raw),
		}
		// As in the binary, a failed send is only logged under -verbose;
		// the harness sees it as a downlink that never arrives.
		_ = bridge.Load().SendDownlink(up.EUI, tx)
		if probe != nil {
			t1 := time.Now()
			probe.downlinkNs.Add(t1.Sub(t0).Nanoseconds())
			probe.downlinks.Add(1)
			probe.tr.add("wiring.downlink", 0, int64(up.Tmst), t0, t1)
		}
	})

	b, err := udpfwd.NewBatchBridge("127.0.0.1:0", udpfwd.Options{Handler: handle})
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	bridge.Store(b)
	st.bridge = b
	return st, nil
}

// stop is the binary's phased shutdown: drain queued uplinks, give
// gateways a bounded window to acknowledge downlinks, close.
func (st *liveStack) stop() {
	st.bridge.DrainUplinks()
	st.bridge.FlushDownlinks(500 * time.Millisecond)
	st.bridge.Close()
}
