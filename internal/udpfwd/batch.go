package udpfwd

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alphawan/alphawan/internal/lora"
)

// BatchBridge is the high-throughput server side of the packet-forwarder
// protocol: one read loop acknowledges datagrams and routes them into
// per-worker rings; workers drain the rings in batches and parse with the
// zero-allocation scanner (scan.go), falling back to encoding/json for
// anything exotic. Ingest never blocks — a full ring drops the datagram
// and counts it, so overload shows up in Stats() instead of as silent
// backpressure on the socket.
//
// Routing preserves per-device ordering: datagrams are assigned to
// workers by the DevAddr of their first rxpk (falling back to the gateway
// EUI), so all copies and successive frames of one device flow through
// one worker FIFO even though devices spread across all workers. That is
// the ordering contract the netserver's replay guard expects.
type BatchBridge struct {
	conn *net.UDPConn
	opt  Options

	rings []*ring
	pool  sync.Pool
	wg    sync.WaitGroup

	mu       sync.RWMutex
	pullAddr map[EUI]netip.AddrPort
	gwStats  map[EUI]*Stat

	tokenSeq atomic.Uint32

	datagrams     atomic.Int64
	uplinks       atomic.Int64
	overloadDrops atomic.Int64
	fallbacks     atomic.Int64
	parseErrors   atomic.Int64
	dlSent        atomic.Int64
	dlAcked       atomic.Int64

	closed   atomic.Bool
	draining atomic.Bool
	once     sync.Once
}

// UplinkFrame is one decoded uplink delivered to the handler. Raw is the
// PHYPayload in a worker-owned scratch buffer: it is valid only for the
// duration of the handler call (the netserver decodes out of it
// immediately; anything retaining it must copy).
type UplinkFrame struct {
	EUI     EUI
	Tmst    uint32 // gateway µs counter
	FreqHz  uint64
	Chain   int
	RFCh    int
	RSSIdBm int
	SNRdB   float64
	DR      lora.DR
	Raw     []byte
}

// Options configures a BatchBridge.
type Options struct {
	// Workers is the number of parse/handle goroutines (default 4). The
	// handler is called concurrently from all of them.
	Workers int
	// RingSize is each worker's queue capacity in datagrams (default
	// 1024); the ring full is the overload-drop point.
	RingSize int
	// Batch bounds how many datagrams a worker takes per ring access
	// (default 32) — the lock-amortization unit.
	Batch int
	// Handler receives every decoded uplink. Required; must be safe for
	// concurrent calls when Workers > 1.
	Handler func(*UplinkFrame)

	// forcePortable pins the read loop to the per-datagram fallback even
	// where recvmmsg is available — test-only, to keep both ingest loops
	// covered on every platform.
	forcePortable bool
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.RingSize <= 0 {
		o.RingSize = 1024
	}
	if o.Batch <= 0 {
		o.Batch = 32
	}
}

// BridgeStats is a snapshot of the batched bridge's counters.
type BridgeStats struct {
	Datagrams     int64 // PUSH_DATA datagrams accepted off the socket
	Uplinks       int64 // decoded rxpks handed to the handler
	OverloadDrops int64 // datagrams dropped on a full ring
	Fallbacks     int64 // datagrams parsed via encoding/json
	ParseErrors   int64 // rxpks no parser could decode
	DownlinksSent int64
	DownlinkAcks  int64 // TX_ACKs received from gateways
}

// datagram is one pooled PUSH_DATA awaiting a worker (full wire bytes,
// header included, so the fallback path can re-parse it whole).
type datagram struct {
	buf []byte
	eui EUI
}

// NewBatchBridge listens on the UDP address and starts the read loop and
// worker pool.
func NewBatchBridge(addr string, opt Options) (*BatchBridge, error) {
	if opt.Handler == nil {
		return nil, fmt.Errorf("udpfwd: BatchBridge requires a Handler")
	}
	opt.defaults()
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udpfwd: %w", err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("udpfwd: %w", err)
	}
	// Ask for a deep kernel receive queue: bursts above the parse rate
	// should land in our rings (where drops are counted) or the socket
	// buffer, not vanish at the default rmem limit. Best-effort — the OS
	// may clamp it.
	conn.SetReadBuffer(4 << 20)
	b := &BatchBridge{
		conn:     conn,
		opt:      opt,
		pullAddr: make(map[EUI]netip.AddrPort),
		gwStats:  make(map[EUI]*Stat),
	}
	b.pool.New = func() any { return &datagram{buf: make([]byte, 0, 2048)} }
	b.rings = make([]*ring, opt.Workers)
	for i := range b.rings {
		b.rings[i] = newRing(opt.RingSize)
		b.wg.Add(1)
		go b.worker(b.rings[i])
	}
	go b.readLoop()
	return b, nil
}

// Addr returns the bridge's bound UDP address.
func (b *BatchBridge) Addr() *net.UDPAddr { return b.conn.LocalAddr().(*net.UDPAddr) }

// Stats returns a snapshot of the bridge counters.
func (b *BatchBridge) Stats() BridgeStats {
	return BridgeStats{
		Datagrams:     b.datagrams.Load(),
		Uplinks:       b.uplinks.Load(),
		OverloadDrops: b.overloadDrops.Load(),
		Fallbacks:     b.fallbacks.Load(),
		ParseErrors:   b.parseErrors.Load(),
		DownlinksSent: b.dlSent.Load(),
		DownlinkAcks:  b.dlAcked.Load(),
	}
}

// GatewayStat returns the latest status report from a gateway (stat
// bodies ride the encoding/json fallback path).
func (b *BatchBridge) GatewayStat(eui EUI) (Stat, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if s := b.gwStats[eui]; s != nil {
		return *s, true
	}
	return Stat{}, false
}

// Close stops the socket and signals the rings; queued datagrams are
// still parsed. Use Drain to wait for that to finish.
func (b *BatchBridge) Close() error {
	b.closed.Store(true)
	var err error
	b.once.Do(func() {
		err = b.conn.Close()
		for _, r := range b.rings {
			r.close()
		}
	})
	return err
}

// Drain closes the bridge and blocks until every queued datagram has been
// parsed and handed to the handler — the orderly-shutdown half of the
// backpressure contract (nothing accepted off the socket is silently
// discarded on exit).
func (b *BatchBridge) Drain() {
	b.Close()
	b.wg.Wait()
}

// DrainUplinks stops accepting new PUSH_DATA (arriving ones are ignored,
// unacked) and blocks until every queued datagram has been parsed and
// handed to the handler. Unlike Drain, the socket stays open: drained
// uplinks may still trigger downlinks — SendDownlink keeps working and
// late TX_ACKs are still accounted — making this the first phase of an
// orderly shutdown, before FlushDownlinks and Close.
func (b *BatchBridge) DrainUplinks() {
	b.draining.Store(true)
	for _, r := range b.rings {
		r.close()
	}
	b.wg.Wait()
}

// FlushDownlinks waits until every PULL_RESP sent has been matched by a
// gateway TX_ACK, or the timeout expires. Returns true when fully acked.
func (b *BatchBridge) FlushDownlinks(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for b.dlAcked.Load() < b.dlSent.Load() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// SendDownlink issues a PULL_RESP to the gateway with a fresh token (the
// gateway's TX_ACK echoes it, which is what FlushDownlinks accounts).
func (b *BatchBridge) SendDownlink(eui EUI, tx TXPK) error {
	b.mu.RLock()
	addr, ok := b.pullAddr[eui]
	b.mu.RUnlock()
	if !ok {
		return fmt.Errorf("udpfwd: gateway %v has no downlink path (no PULL_DATA seen)", eui)
	}
	p := Packet{Type: PullResp, Token: uint16(b.tokenSeq.Add(1)), TX: &tx}
	raw, err := p.Marshal()
	if err != nil {
		return err
	}
	b.dlSent.Add(1)
	_, err = b.conn.WriteToUDPAddrPort(raw, addr)
	return err
}

// dataKeyPattern locates the first rxpk's base64 payload for routing.
var dataKeyPattern = []byte(`"data":"`)

// readLoop prefers the recvmmsg/sendmmsg batched ingest (mmsg_linux.go)
// and falls back to one syscall per datagram where that is unavailable.
// Acknowledgement in both loops confirms receipt, not processing — a
// fast ack keeps forwarder retransmission (which would only add load)
// quiet.
func (b *BatchBridge) readLoop() {
	if !b.opt.forcePortable && b.readLoopMmsg() {
		return
	}
	buf := make([]byte, 65536)
	var ack [4]byte
	ack[0] = ProtocolVersion
	for {
		n, from, err := b.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if b.closed.Load() {
				return
			}
			continue // transient error: keep serving
		}
		if n < 4 || buf[0] != ProtocolVersion {
			continue
		}
		switch PacketType(buf[3]) {
		case PushData:
			if n < 12 || b.draining.Load() {
				continue
			}
			// Queue before acking, as the batched loop does: a sender that
			// has its PUSH_ACK may call Drain and lose nothing.
			b.acceptPush(buf[:n])
			ack[1], ack[2], ack[3] = buf[1], buf[2], byte(PushAck)
			b.conn.WriteToUDPAddrPort(ack[:], from)
		case PullData:
			if n < 12 {
				continue
			}
			b.registerPull(EUI(binary.BigEndian.Uint64(buf[4:12])), from)
			ack[1], ack[2], ack[3] = buf[1], buf[2], byte(PullAck)
			b.conn.WriteToUDPAddrPort(ack[:], from)
		case TXAck:
			b.dlAcked.Add(1)
		}
	}
}

// acceptPush counts one validated PUSH_DATA (len ≥ 12, version checked)
// and routes a pooled copy of it to its worker ring.
func (b *BatchBridge) acceptPush(buf []byte) {
	b.datagrams.Add(1)
	d := b.pool.Get().(*datagram)
	d.buf = append(d.buf[:0], buf...)
	d.eui = EUI(binary.BigEndian.Uint64(buf[4:12]))
	if !b.rings[b.route(d)].tryPush(d) {
		b.overloadDrops.Add(1)
		b.pool.Put(d)
	}
}

// registerPull records a gateway's PULL_DATA source address — its
// downlink path for SendDownlink.
func (b *BatchBridge) registerPull(eui EUI, from netip.AddrPort) {
	b.mu.Lock()
	b.pullAddr[eui] = from
	b.mu.Unlock()
}

// sendEach is the portable MultiSender path: one Write per datagram on a
// connected socket.
func sendEach(conn *net.UDPConn, bufs [][]byte) error {
	for _, buf := range bufs {
		if _, err := conn.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// recvOne is the portable MultiReceiver path: one discarded datagram per
// Read on a connected socket.
func recvOne(conn *net.UDPConn) (int, error) {
	var scratch [2048]byte
	if _, err := conn.Read(scratch[:]); err != nil {
		return 0, err
	}
	return 1, nil
}

// route picks the worker ring for a datagram: by the first rxpk's DevAddr
// when one can be peeked (bytes 1..4 of the PHYPayload, i.e. the first 8
// base64 characters of its data field), else by gateway EUI. Same device
// → same ring → per-device FIFO through the worker pool.
func (b *BatchBridge) route(d *datagram) int {
	body := d.buf[12:]
	if i := bytes.Index(body, dataKeyPattern); i >= 0 {
		data := body[i+len(dataKeyPattern):]
		var head [6]byte
		if len(data) >= 8 {
			if _, err := base64.StdEncoding.Decode(head[:], data[:8]); err == nil {
				addr := uint32(head[1]) | uint32(head[2])<<8 | uint32(head[3])<<16 | uint32(head[4])<<24
				return int(addr % uint32(len(b.rings)))
			}
		}
	}
	return int(uint64(d.eui) % uint64(len(b.rings)))
}

func (b *BatchBridge) worker(r *ring) {
	defer b.wg.Done()
	batch := make([]*datagram, 0, b.opt.Batch)
	views := make([]rxpkView, 0, 16)
	raw := make([]byte, 512)
	var up UplinkFrame
	for {
		batch = r.popBatch(batch[:0], b.opt.Batch)
		if len(batch) == 0 {
			return // closed and drained
		}
		for _, d := range batch {
			views = b.process(d, views, raw, &up)
			d.buf = d.buf[:0]
			b.pool.Put(d)
		}
	}
}

// process parses one datagram and hands its uplinks to the handler,
// returning the (possibly grown) view scratch for reuse.
func (b *BatchBridge) process(d *datagram, views []rxpkView, raw []byte, up *UplinkFrame) []rxpkView {
	vs, err := scanRxpks(d.buf[12:], views[:0])
	if err != nil {
		b.fallback(d, raw, up)
		return vs[:0]
	}
	for i := range vs {
		v := &vs[i]
		n, err := base64.StdEncoding.Decode(raw, v.Data)
		if err != nil {
			b.parseErrors.Add(1)
			continue
		}
		dr, ok := parseDatrFast(v.Datr)
		if !ok {
			b.parseErrors.Add(1)
			continue
		}
		up.EUI, up.Tmst, up.FreqHz = d.eui, v.Tmst, v.FreqHz
		up.Chain, up.RFCh, up.RSSIdBm, up.SNRdB = v.Chain, v.RFCh, v.RSSI, v.LSNR
		up.DR, up.Raw = dr, raw[:n]
		b.uplinks.Add(1)
		b.opt.Handler(up)
	}
	return vs[:0]
}

// fallback re-parses a whole datagram with encoding/json — the catch-all
// for stat reports and any body outside the scanner's subset.
func (b *BatchBridge) fallback(d *datagram, raw []byte, up *UplinkFrame) {
	b.fallbacks.Add(1)
	p, err := Unmarshal(d.buf)
	if err != nil {
		b.parseErrors.Add(1)
		return
	}
	if p.Status != nil {
		b.mu.Lock()
		st := *p.Status
		b.gwStats[p.EUI] = &st
		b.mu.Unlock()
	}
	for i := range p.RXPKs {
		rx := &p.RXPKs[i]
		n, err := base64.StdEncoding.Decode(raw, []byte(rx.Data))
		if err != nil {
			b.parseErrors.Add(1)
			continue
		}
		dr, err := ParseDatr(rx.Datr)
		if err != nil {
			b.parseErrors.Add(1)
			continue
		}
		up.EUI, up.Tmst, up.FreqHz = p.EUI, rx.Tmst, uint64(rx.Freq*1e6+0.5)
		up.Chain, up.RFCh, up.RSSIdBm, up.SNRdB = rx.Chan, rx.RFCh, rx.RSSI, rx.LSNR
		up.DR, up.Raw = dr, raw[:n]
		b.uplinks.Add(1)
		b.opt.Handler(up)
	}
}
