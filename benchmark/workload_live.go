package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/netserver"
	"github.com/alphawan/alphawan/internal/udpfwd"
)

// Offered copy rates, uplink copies per second, frozen as absolute
// numbers. They were set from the seed commit's live-overload work_per_s
// on the 2-core reference box (≈ 460 000 frames/s, ≈ 650 000 copies/s
// handled; README, "Live rates"): lo/mid/hi are about 10/25/40 % of it,
// overload about 150 %. The box's speed swings by a third over minutes, so
// the steady rates sit lower than the 15/40/65 % first planned: at those,
// a slow spell turned the hi phase into a second overload workload.
const (
	liveRateLo       = 60_000
	liveRateMid      = 160_000
	liveRateHi       = 260_000
	liveRateOverload = 960_000

	// liveLimit is the delivery deadline, a tenth of the RX1 delay: a
	// frame served later leaves too little of the second for the downlink
	// to be scheduled, so it counts as failed.
	liveLimit = 100 * time.Millisecond

	liveDevicesFull  = 100_000
	liveDevicesSmoke = 500
)

// livePhase is one stretch of fixed offered load.
type livePhase struct {
	name    string
	rate    float64 // uplink copies per second
	seconds float64
}

func (ph livePhase) datagrams() int { return int(ph.rate * ph.seconds / liveRxpks) }

// frames is how many frames to pre-encode for the phase: its copies at
// the mix's 1.4 per frame, plus headroom for the draw.
func (ph livePhase) frames() int {
	return int(float64(ph.datagrams()*liveRxpks)/1.4*1.02) + 512
}

// phaseResult is what one phase measured.
type phaseResult struct {
	livePhase
	datagrams, frames  int64 // sent; frames = distinct frames first offered here
	window             time.Duration
	cpu                float64
	uplinks            int64 // copies the server handled
	delivered, inLimit int64
	latP50, latTail    time.Duration
	tailQ              float64
	lateP99            time.Duration
	waitP50, waitP99   time.Duration
	srv0, srv1         netserver.ServerStats
	bridge0, bridge1   udpfwd.BridgeStats
	downlinkLat        []int64
	dlUnseen           int64
}

// liveRun is the state of one live workload run.
type liveRun struct {
	cfg     runConfig
	traffic *liveTraffic
	stack   *liveStack
	probe   *liveProbe
	asm     *liveAssembler
	up      *net.UDPConn // PUSH_DATA out, PUSH_ACK in
	down    *net.UDPConn // PULL_DATA out, PULL_RESP in, TX_ACK out
	sender  *udpfwd.MultiSender
	readers sync.WaitGroup
	closed  bool

	t0 time.Time
	// win is the current phase's per-frame state. Bridge workers and the
	// pull loop load it; prepare publishes a fresh one between phases.
	win atomic.Pointer[liveWindow]

	delivered atomic.Int64
	dlMu      sync.Mutex
	dlLat     []int64
	dlUnseen  int64 // PULL_RESP that match no frame offered in the phase
	sentDgs   int64
}

// liveWindow is the per-frame state of one phase, indexed by frame − base.
// due is the frame's due time, ns since t0 (0 = not offered), written by
// the generator and read by the bridge workers. lat is its due→Served
// latency in ns, written once by whichever worker delivered it and read
// after the delivered counter says so; wait is due→handler entry of its
// first copy (traced run only).
type liveWindow struct {
	base int
	due  []atomic.Int64
	lat  []int32
	wait []atomic.Int32
}

// index returns the window's slot of the frame tagged tmst.
func (w *liveWindow) index(tmst uint32) (int, bool) {
	i := int(tmst) - w.base
	return i, i >= 0 && i < len(w.due)
}

func clampNs(d int64) int32 {
	if d < 1 {
		return 1
	}
	if d > 1<<31-1 {
		return 1<<31 - 1
	}
	return int32(d)
}

// prepare pre-encodes the next `frames` frames and publishes a fresh
// window for them. Called between phases, when the server is idle.
func (lr *liveRun) prepare(frames int) error {
	lr.asm.discard()
	w := &liveWindow{base: lr.asm.next, due: make([]atomic.Int64, frames), lat: make([]int32, frames)}
	if lr.probe != nil {
		w.wait = make([]atomic.Int32, frames)
	}
	lr.win.Store(w)
	return lr.traffic.prepare(w.base, frames)
}

// liveSetup builds the server stack, sockets and PULL path, and
// pre-encodes the first phase's frames.
func liveSetup(cfg runConfig, devices, frames int) (*liveRun, error) {
	lr := &liveRun{cfg: cfg, traffic: newLiveTraffic(cfg.seed, devices)}
	lr.asm = newLiveAssembler(lr.traffic)
	if cfg.tr != nil {
		lr.probe = &liveProbe{tr: cfg.tr}
		lr.probe.entry = func(tmst uint32, at time.Time) {
			w := lr.win.Load()
			if i, ok := w.index(tmst); ok {
				w.wait[i].CompareAndSwap(0, clampNs(at.Sub(lr.t0).Nanoseconds()-w.due[i].Load()))
			}
		}
	}
	if err := lr.prepare(frames); err != nil {
		return nil, err
	}
	lr.t0 = time.Now()
	served := func(d netserver.Data) {
		w := lr.win.Load()
		if i, ok := w.index(uint32(d.Meta.At)); ok { // Meta.At is the tmst tag
			w.lat[i] = clampNs(time.Since(lr.t0).Nanoseconds() - w.due[i].Load())
		}
		lr.delivered.Add(1)
	}
	var err error
	if lr.stack, err = newLiveStack(devices, served, lr.probe); err != nil {
		return nil, err
	}

	addr := lr.stack.bridge.Addr()
	if lr.up, err = net.DialUDP("udp", nil, addr); err != nil {
		lr.stack.stop()
		return nil, fmt.Errorf("live: %w", err)
	}
	if lr.down, err = net.DialUDP("udp", nil, addr); err != nil {
		lr.up.Close()
		lr.stack.stop()
		return nil, fmt.Errorf("live: %w", err)
	}
	lr.sender = udpfwd.NewMultiSender(lr.up)

	// Register the four gateways' downlink path and wait for the acks, so
	// no command finds its gateway without one.
	if err := lr.pullData(); err != nil {
		lr.close()
		return nil, err
	}
	ack := make([]byte, 64)
	lr.down.SetReadDeadline(time.Now().Add(2 * time.Second))
	for got := 0; got < liveGateways; {
		n, err := lr.down.Read(ack)
		if err != nil {
			lr.close()
			return nil, fmt.Errorf("live: waiting for PULL_ACK: %w", err)
		}
		if n >= 4 && udpfwd.PacketType(ack[3]) == udpfwd.PullAck {
			got++
		}
	}
	lr.down.SetReadDeadline(time.Time{})

	lr.readers.Add(2)
	go lr.drainAcks()
	go lr.pullLoop()
	return lr, nil
}

func (lr *liveRun) pullData() error {
	var pkt [12]byte
	pkt[0], pkt[3] = udpfwd.ProtocolVersion, byte(udpfwd.PullData)
	for gw := 0; gw < liveGateways; gw++ {
		binary.BigEndian.PutUint64(pkt[4:], uint64(gw))
		if _, err := lr.down.Write(pkt[:]); err != nil {
			return fmt.Errorf("live: PULL_DATA: %w", err)
		}
	}
	return nil
}

// drainAcks discards PUSH_ACKs in batches so the up socket never backs up.
func (lr *liveRun) drainAcks() {
	defer lr.readers.Done()
	rx := udpfwd.NewMultiReceiver(lr.up)
	for {
		if _, err := rx.Recv(); err != nil {
			return
		}
	}
}

var tmstKey = []byte(`"tmst":`)

// pullLoop plays the gateways' down socket: it keeps PULL_DATA alive,
// answers every PULL_RESP with a TX_ACK and times the downlink against
// the due time of the uplink that triggered it (txpk.tmst is that
// uplink's tmst tag plus the RX1 delay).
func (lr *liveRun) pullLoop() {
	defer lr.readers.Done()
	buf := make([]byte, 2048)
	var ack [12]byte
	ack[0], ack[3] = udpfwd.ProtocolVersion, byte(udpfwd.TXAck)
	lastPull := time.Now()
	for {
		lr.down.SetReadDeadline(time.Now().Add(time.Second))
		n, err := lr.down.Read(buf)
		now := time.Now()
		if now.Sub(lastPull) >= 5*time.Second {
			lastPull = now
			if lr.pullData() != nil {
				return
			}
		}
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				continue
			}
			return // socket closed
		}
		if n < 4 || udpfwd.PacketType(buf[3]) != udpfwd.PullResp {
			continue
		}
		ack[1], ack[2] = buf[1], buf[2]
		if _, err := lr.down.Write(ack[:]); err != nil {
			return
		}
		tag := -1
		if i := bytes.Index(buf[4:n], tmstKey); i >= 0 {
			digits := buf[4+i+len(tmstKey) : n]
			end := 0
			for end < len(digits) && digits[end] >= '0' && digits[end] <= '9' {
				end++
			}
			if v, err := strconv.ParseUint(string(digits[:end]), 10, 32); err == nil {
				tag = int(uint32(v) - uint32(netserver.RX1Delay/des.Microsecond))
			}
		}
		w := lr.win.Load()
		lr.dlMu.Lock()
		if i, ok := w.index(uint32(tag)); ok && tag >= 0 && w.due[i].Load() != 0 {
			lr.dlLat = append(lr.dlLat, now.Sub(lr.t0).Nanoseconds()-w.due[i].Load())
		} else {
			lr.dlUnseen++
		}
		lr.dlMu.Unlock()
	}
}

// close stops the stack and the harness's goroutines and waits for them.
// Calling it again is a no-op.
func (lr *liveRun) close() {
	if lr.closed {
		return
	}
	lr.closed = true
	lr.stack.stop()
	lr.up.Close()
	lr.down.Close()
	lr.readers.Wait()
}

// quiesce waits until the bridge has handed the server every rxpk of every
// datagram it accepted, and nothing new has arrived for two polls.
func (lr *liveRun) quiesce() {
	deadline := time.Now().Add(5 * time.Second)
	var prev udpfwd.BridgeStats
	for stable := 0; stable < 2 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		b := lr.stack.bridge.Stats()
		drained := liveRxpks*(b.Datagrams-b.OverloadDrops) == b.Uplinks+b.ParseErrors &&
			int64(lr.stack.srv.Stats().Uplinks) == b.Uplinks
		if drained && b == prev {
			stable++
		} else {
			stable = 0
		}
		prev = b
	}
}

// send plays one phase: datagram k of the phase is due at k·8/rate, and
// everything due goes out in sendmmsg batches.
func (lr *liveRun) send(ph livePhase, clk clock) (*openLoop, int64, error) {
	count := ph.datagrams()
	loop := newOpenLoop(clk, ph.rate/liveRxpks, count)
	w := lr.win.Load()
	var frames int64
	batch := make([]*liveDatagram, 0, 16)
	bufs := make([][]byte, 0, 16)
	for sent := 0; sent < count; {
		due := min(loop.dueCount(clk.Now()), count)
		if due == sent {
			clk.Sleep(200 * time.Microsecond)
			continue
		}
		for sent < due {
			batch, bufs = batch[:0], bufs[:0]
			for len(batch) < cap(batch) && sent+len(batch) < due {
				d := lr.asm.pop()
				if d == nil {
					return nil, 0, fmt.Errorf("live: prepared frames exhausted in phase %s", ph.name)
				}
				dueNs := loop.dueAt(sent + len(batch)).Sub(lr.t0).Nanoseconds()
				for _, n := range d.frames {
					if i := int(n) - w.base; w.due[i].Load() == 0 {
						w.due[i].Store(dueNs)
						frames++
					}
				}
				batch, bufs = append(batch, d), append(bufs, d.buf)
			}
			now := clk.Now()
			if err := lr.sender.Send(bufs); err != nil {
				return nil, 0, fmt.Errorf("live: send: %w", err)
			}
			for _, d := range batch {
				loop.sent(now)
				lr.asm.release(d)
			}
			sent += len(batch)
		}
	}
	lr.sentDgs += int64(count)
	return loop, frames, nil
}

// runPhase sends one phase, waits for the server to drain and reads every
// counter around it.
func (lr *liveRun) runPhase(ph livePhase) (*phaseResult, error) {
	res := &phaseResult{livePhase: ph}
	runtime.GC()
	res.srv0, res.bridge0 = lr.stack.srv.Stats(), lr.stack.bridge.Stats()
	delivered0 := lr.delivered.Load()
	lr.dlMu.Lock()
	lr.dlLat, lr.dlUnseen = lr.dlLat[:0], 0
	lr.dlMu.Unlock()
	cpu0 := processCPUSeconds()
	id := lr.cfg.tr.begin("phase."+ph.name, 0, 0)
	start := time.Now()

	loop, frames, err := lr.send(ph, wallClock{})
	if err != nil {
		return nil, err
	}
	res.window = time.Since(start)
	lr.quiesce()
	lr.cfg.tr.end(id)

	res.cpu = processCPUSeconds() - cpu0
	res.srv1, res.bridge1 = lr.stack.srv.Stats(), lr.stack.bridge.Stats()
	res.datagrams, res.frames = int64(len(loop.late)), frames
	res.uplinks = int64(res.srv1.Uplinks - res.srv0.Uplinks)
	res.delivered = lr.delivered.Load() - delivered0
	res.lateP99 = loop.lateness(0.99)

	w := lr.win.Load()
	lats := make([]int64, 0, frames)
	var waits []int64
	for n, l := range w.lat {
		if l != 0 {
			lats = append(lats, int64(l))
			if time.Duration(l) <= liveLimit {
				res.inLimit++
			}
		}
		if w.wait != nil {
			if v := w.wait[n].Load(); v != 0 {
				waits = append(waits, int64(v))
			}
		}
	}
	res.tailQ = tailQuantile(len(lats))
	res.latP50 = time.Duration(quantileInt64(lats, 0.5))
	res.latTail = time.Duration(quantileInt64(lats, res.tailQ))
	res.waitP50 = time.Duration(quantileInt64(waits, 0.5))
	res.waitP99 = time.Duration(quantileInt64(waits, 0.99))

	lr.dlMu.Lock()
	res.downlinkLat = append([]int64(nil), lr.dlLat...)
	res.dlUnseen = lr.dlUnseen
	lr.dlMu.Unlock()
	return res, nil
}

// equation is one conservation identity: both sides must be equal.
type equation struct {
	name     string
	lhs, rhs int64
}

// checkConservation reports every identity that does not hold.
func checkConservation(r *report, eqs []equation) {
	for _, e := range eqs {
		if e.lhs != e.rhs {
			r.problemf("conservation: %s: %d ≠ %d", e.name, e.lhs, e.rhs)
		}
	}
}

// liveEquations are the packet-conservation identities of a whole run.
// Kernel drops are what the bridge never accepted off the socket.
func liveEquations(sentDgs, servedFrames int64, b udpfwd.BridgeStats, s netserver.ServerStats) []equation {
	return []equation{
		{"rxpks of accepted datagrams = bridge uplinks + parse errors",
			liveRxpks * (b.Datagrams - b.OverloadDrops), b.Uplinks + b.ParseErrors},
		{"copies offered = kernel drops + 8 × overload drops + parse errors + server uplinks",
			liveRxpks * sentDgs, liveRxpks*(sentDgs-b.Datagrams) + liveRxpks*b.OverloadDrops + b.ParseErrors + int64(s.Uplinks)},
		{"server uplinks = delivered + duplicates + bad MIC + unknown + replays",
			int64(s.Uplinks), int64(s.Delivered + s.Duplicates + s.BadMIC + s.Unknown + s.Replays)},
		{"frames served = server deliveries", servedFrames, int64(s.Delivered)},
		{"downlinks sent = ADR commands", b.DownlinksSent, int64(s.ADRCommands)},
	}
}

// runLive plays an untimed warm-up phase and the timed phases against one
// server stack. steady says the offered load is one the seed sustains, so
// nothing may be lost at the rates the end-to-end values are read at.
func runLive(cfg runConfig, name string, steady bool, warm livePhase, phases []livePhase) (*report, error) {
	r := newReport(name)
	devices := liveDevicesFull
	if cfg.smoke {
		devices = liveDevicesSmoke
	}

	// Set-up is built twice; the first stack is torn down again.
	var setups []float64
	var lr *liveRun
	for i := 0; i < 2; i++ {
		if lr != nil {
			lr.close()
			lr = nil
			runtime.GC() // or both arenas count towards peak RSS
		}
		id := cfg.tr.begin("live.setup", 0, int64(i))
		t0 := time.Now()
		var err error
		if lr, err = liveSetup(cfg, devices, warm.frames()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cfg.tr.end(id)
	}
	defer lr.close()

	var timed []*phaseResult
	for i, ph := range append([]livePhase{warm}, phases...) {
		if i > 0 {
			id := cfg.tr.begin("bench.encode", 0, int64(i))
			if err := lr.prepare(ph.frames()); err != nil {
				return nil, err
			}
			cfg.tr.end(id)
		}
		if i == 1 {
			if err := cfg.tr.startProfile(); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		res, err := lr.runPhase(ph)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			timed = append(timed, res)
		}
		r.notef("phase %-5s %7.0f copies/s for %.2fs: %d frames, %d delivered (%d in limit), p50 %v %s %v, generator p99 late %v, %d downlinks",
			ph.name, ph.rate, res.window.Seconds(), res.frames, res.delivered, res.inLimit,
			res.latP50, quantileName(res.tailQ), res.latTail, res.lateP99, len(res.downlinkLat))
		if i > 0 && res.lateP99 > liveLimit {
			r.problemf("phase %s: generator ran %v late at p99, beyond the %v latency limit", ph.name, res.lateP99, liveLimit)
		}
		if steady && res.dlUnseen != 0 {
			r.problemf("phase %s: %d PULL_RESP matched no frame offered in it", ph.name, res.dlUnseen)
		}
	}
	var uplinks int64
	for _, res := range timed {
		uplinks += res.uplinks
	}
	cfg.tr.stopProfile(r, uplinks)
	lr.close()

	// Whole-run conservation, after the stack has drained and stopped.
	sst, bst := lr.stack.srv.Stats(), lr.stack.bridge.Stats()
	checkConservation(r, liveEquations(lr.sentDgs, lr.delivered.Load(), bst, sst))
	if steady && bst.DownlinkAcks != bst.DownlinksSent {
		r.problemf("%d downlinks sent, %d acknowledged", bst.DownlinksSent, bst.DownlinkAcks)
	}
	r.notef("run: %d datagrams sent, %d accepted, %d overload-dropped; server %d uplinks = %d delivered + %d duplicates + %d rejected; %d/%d downlinks acked",
		lr.sentDgs, bst.Datagrams, bst.OverloadDrops, sst.Uplinks, sst.Delivered, sst.Duplicates,
		sst.BadMIC+sst.Unknown+sst.Replays, bst.DownlinkAcks, bst.DownlinksSent)
	r.notef("live traffic crossed the host loopback, not a link")

	liveMetrics(r, cfg, lr.probe, steady, setups, timed)
	return r, nil
}

func quantileName(q float64) string {
	if q >= 1 {
		return "max"
	}
	return fmt.Sprintf("p%g", 100*q)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// liveMetrics fills the report from the timed phases. live-steady has
// three different rates and reads its end-to-end values at the middle
// one; live-overload has three equal phases and reports their median.
func liveMetrics(r *report, cfg runConfig, probe *liveProbe, steady bool, setups []float64, timed []*phaseResult) {
	e2e := timed
	if steady {
		e2e = timed[1:2]
	}
	var offered, delivered, ok, uplinks int64
	var goodput, p50, cpu []float64
	for _, res := range e2e {
		offered += res.frames
		delivered += res.delivered
		uplinks += res.uplinks
		// A steady frame counts when it is served within the limit. Under
		// overload the rings are full by design and the wait is their depth
		// over the service rate, so there a frame counts when it is served
		// at all, and shed frames show as a lower ratio.
		if steady {
			ok += res.inLimit
		} else {
			ok += res.delivered
		}
		goodput = append(goodput, float64(res.delivered)/res.window.Seconds())
		p50 = append(p50, ms(res.latP50))
		cpu = append(cpu, 1e6*res.cpu/float64(max(res.uplinks, 1)))
	}
	if steady {
		// CPU per copy is read over all three rates, not at mid alone:
		// three times the window, and a third of the run-to-run spread.
		var c float64
		var u int64
		for _, res := range timed {
			c, u = c+res.cpu, u+res.uplinks
		}
		cpu = []float64{1e6 * c / float64(max(u, 1))}
	}
	// A frame the steady workload loses has failed (a late one only lowers
	// delivered_ratio: on a shared box a 100 ms stall of the whole VM makes
	// frames late whatever the code does). A frame the overload workload
	// sheds is a counted outcome; it fails only if the conservation
	// identities cannot account for it.
	r.attempted = offered
	if steady {
		r.failed = offered - delivered
	}

	if cfg.tr == nil {
		r.setMedian("setup_s", setups)
		r.setMedian("work_per_s", goodput)
		r.setMedian("latency_p50_ms", p50)
		r.set("delivered_ratio", ratio(ok, offered))
		r.set("result_cost", 1e3*ratio(uplinks, ok))
		r.set("peak_rss_mb", peakRSSMB())
		r.setMedian("cpu_us_per_op", cpu)
		return
	}

	r.setMedian("trace.work_per_s", goodput)
	pr := timed[0]
	last := timed[len(timed)-1]
	sent := int64(0)
	var dl []int64
	var lateP99, waitP50, waitP99 []float64
	for _, res := range timed {
		sent += res.datagrams
		dl = append(dl, res.downlinkLat...)
		lateP99 = append(lateP99, us(res.lateP99))
	}
	for _, res := range e2e {
		waitP50, waitP99 = append(waitP50, us(res.waitP50)), append(waitP99, us(res.waitP99))
	}
	b0, b1 := pr.bridge0, last.bridge1
	s0, s1 := pr.srv0, last.srv1
	accepted := b1.Datagrams - b0.Datagrams
	up := int64(s1.Uplinks - s0.Uplinks)
	r.set("netserver.handle_ns", ratio(probe.handleNs.Load(), probe.copies.Load()))
	r.set("wiring.note_ns", ratio(probe.noteNs.Load(), probe.copies.Load()))
	r.set("wiring.downlink_ns", ratio(probe.downlinkNs.Load(), probe.downlinks.Load()))
	r.set("wiring.downlink_p50_us", float64(quantileInt64(dl, 0.5))/1e3)
	r.set("netserver.dup_ratio", ratio(int64(s1.Duplicates-s0.Duplicates), up))
	r.set("netserver.reject_ratio", ratio(int64(s1.BadMIC+s1.Unknown+s1.Replays-s0.BadMIC-s0.Unknown-s0.Replays), up))
	r.setMedian("udpfwd.queue_wait_p50_us", waitP50)
	r.setMedian("udpfwd.queue_wait_p99_us", waitP99)
	r.set("udpfwd.kernel_drop_ratio", ratio(sent-accepted, sent))
	r.set("udpfwd.overload_drop_ratio", ratio(b1.OverloadDrops-b0.OverloadDrops, sent))
	r.set("udpfwd.fallback_ratio", ratio(b1.Fallbacks-b0.Fallbacks, accepted))
	r.set("udpfwd.parse_errors", float64(b1.ParseErrors-b0.ParseErrors))
	r.set("udpfwd.downlink_ack_ratio", ratio(b1.DownlinkAcks-b0.DownlinkAcks, b1.DownlinksSent-b0.DownlinksSent))
	r.set("liveload.sched_lag_p99_us", quantile(lateP99, 1))
	r.set("liveload.offered_pps", e2e[0].rate)
	var tails []float64
	for _, res := range e2e {
		tails = append(tails, us(res.latTail))
	}
	r.setMedian("liveload.p99_us.mid", tails)
	if steady {
		lo, hi := timed[0], timed[2]
		r.set("liveload.p50_us.lo", us(lo.latP50))
		r.set("liveload.p99_us.lo", us(lo.latTail))
		r.set("liveload.p50_us.hi", us(hi.latP50))
		r.set("liveload.p99_us.hi", us(hi.latTail))
	}
}

// liveWarm is the untimed first phase: `copies` uplink copies at `rate`.
func liveWarm(copies, rate float64) livePhase {
	return livePhase{name: "warm", rate: rate, seconds: copies / rate}
}

func runLiveSteady(cfg runConfig) (*report, error) {
	d := cfg.seconds / 2
	// Warm-up: one frame per device, so every session has its decoder and
	// its lastSeen entry before the lo phase.
	warm := liveWarm(1.4*liveDevicesFull, liveRateLo)
	phases := []livePhase{{"lo", liveRateLo, d}, {"mid", liveRateMid, d}, {"hi", liveRateHi, d}}
	if cfg.smoke {
		warm = liveWarm(1.4*liveDevicesSmoke, 4000)
		phases = []livePhase{{"lo", 2000, 0.3}, {"mid", 4000, 0.3}, {"hi", 8000, 0.3}}
	}
	return runLive(cfg, "live-steady", true, warm, phases)
}

func runLiveOverload(cfg runConfig) (*report, error) {
	d := 0.4 * cfg.seconds
	// Warm-up at the overload rate itself: in twenty runs the first four
	// seconds of overload delivered a fifth less than the seconds after
	// them, so they are not timed. About half of what is offered is
	// handled, which also takes the operational log past its MaxLog (2²⁰
	// rows, one per copy): the timed phases see it at its steady size.
	warm := liveWarm(4*(1<<20), liveRateOverload)
	phases := []livePhase{{"over1", liveRateOverload, d}, {"over2", liveRateOverload, d}, {"over3", liveRateOverload, d}}
	if cfg.smoke {
		// Smoke scale cannot saturate the server in a fraction of a
		// second; it drives the same code at a rate that is delivered.
		warm = liveWarm(1.4*liveDevicesSmoke, 4000)
		phases = []livePhase{{"over1", 8000, 0.2}, {"over2", 8000, 0.2}, {"over3", 8000, 0.2}}
	}
	return runLive(cfg, "live-overload", false, warm, phases)
}
