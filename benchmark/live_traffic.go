package main

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"github.com/alphawan/alphawan/internal/frame"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/udpfwd"
)

// The live traffic mix. Frame n of a run belongs to device order[n mod D]
// with FCnt n div D, so a device's frames are D frames apart and every
// session is touched cache-cold. A frame is heard by one to three of the
// four gateways (mean 1.4 copies); each gateway forwards what it heard in
// PUSH_DATA datagrams of eight rxpk — eight different devices, which is
// what one MAX_RX_PKT poll of a real concentrator returns. The rxpk tmst
// carries the frame index n: the server only does arithmetic on it, and it
// lets the harness match deliveries and RX1 downlinks back to a frame
// without a lookup table.
const (
	liveGateways = 4
	liveRxpks    = 8
	livePHYLen   = 23 // MHDR 1 + FHDR 7 + FPort 1 + payload 10 + MIC 4
	livePayload  = 10
	// liveADREvery makes one device in this many "ADR-active": its SNR
	// climbs frame by frame so the server's ADR keeps issuing LinkADRReq
	// downlinks. Everyone else sits where ADR changes nothing.
	liveADREvery = 100
)

// liveAppKey and the derivation below match cmd/alphawan-server's
// deterministic provisioning, so generated frames verify there.
var liveAppKey = frame.AESKey{0x2b, 0x7e, 0x15, 0x16}

func liveAddr(dev int) frame.DevAddr { return frame.DevAddr(0x02000000 | uint32(dev+1)) }

func liveKeys(dev int) (nwk, app frame.AESKey, err error) {
	return frame.DeriveSessionKeys(liveAppKey, [3]byte{0x01}, [3]byte{0x13}, uint16(dev+1))
}

// liveTraffic is the frame population of one run. Frames are pre-encoded a
// phase at a time into one reused arena — a whole run would be hundreds of
// megabytes, more than the server under test holds — and always outside
// the timed window.
type liveTraffic struct {
	seed    uint64
	devices int
	order   []uint32 // device visiting order, a seeded permutation
	freqs   []string // per-channel "freq" text, MHz
	// phy holds the encoded PHYPayloads of frames [base, base+count).
	phy         []byte
	base, count int
}

func newLiveTraffic(seed int64, devices int) *liveTraffic {
	t := &liveTraffic{seed: uint64(seed), devices: devices}
	rng := rand.New(rand.NewSource(seed))
	t.order = make([]uint32, devices)
	for i, p := range rng.Perm(devices) {
		t.order[i] = uint32(p)
	}
	for _, ch := range region.AS923.AllChannels() {
		t.freqs = append(t.freqs, strconv.FormatFloat(float64(ch.Center)/1e6, 'f', -1, 64))
	}
	return t
}

// prepare encodes frames [base, base+count) into the arena. Each device's
// frames of the range are encoded with one Encoder (one AES key expansion
// per device), then laid out by frame index.
func (t *liveTraffic) prepare(base, count int) error {
	t.base, t.count = base, count
	if need := count * livePHYLen; cap(t.phy) < need {
		t.phy = make([]byte, need)
	} else {
		t.phy = t.phy[:need]
	}
	payload := make([]byte, livePayload)
	for i := range payload {
		payload[i] = byte(i)
	}
	fport := uint8(1)
	end := base + count
	for first := base; first < base+t.devices && first < end; first++ {
		n := first
		dev := int(t.order[n%t.devices])
		nwk, app, err := liveKeys(dev)
		if err != nil {
			return fmt.Errorf("live: derive keys: %w", err)
		}
		enc := frame.NewEncoder(nwk, &app)
		for ; n < end; n += t.devices {
			off := (n - base) * livePHYLen
			out, err := enc.EncodeTo(t.phy[off:off:off+livePHYLen], &frame.Frame{
				MType: frame.UnconfirmedDataUp, DevAddr: liveAddr(dev), ADR: true,
				FCnt: uint32(n / t.devices), FPort: &fport, Payload: payload,
			})
			if err != nil {
				return fmt.Errorf("live: encode frame %d: %w", n, err)
			}
			if len(out) != livePHYLen {
				return fmt.Errorf("live: frame %d encodes to %d bytes, want %d", n, len(out), livePHYLen)
			}
		}
	}
	return nil
}

// mix is a SplitMix64 finalizer: the per-frame coin for copy count and
// first gateway.
func (t *liveTraffic) mix(n int) uint64 {
	z := uint64(n) + t.seed*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// copies returns how many gateways hear frame n (70 % one, 20 % two,
// 10 % three: mean 1.4) and the first of them; copy c goes to gateway
// (first + c) mod liveGateways.
func (t *liveTraffic) copies(n int) (count, first int) {
	h := t.mix(n)
	switch u := h % 10; {
	case u < 7:
		count = 1
	case u < 9:
		count = 2
	default:
		count = 3
	}
	return count, int(h>>32) % liveGateways
}

// snr is the SNR every copy of frame n reports. An ADR-active device's
// k-th frame reads −6 + 2.5k dB (capped at 8), which from DR0/power 0
// clears exactly one more ADR step per frame until DR and power saturate;
// everyone else reads −9 dB, a margin of 1 dB at DR0: no step either way.
func (t *liveTraffic) snr(n int) float64 {
	dev := int(t.order[n%t.devices])
	if dev%liveADREvery != 0 {
		return -9
	}
	if s := -6 + 2.5*float64(n/t.devices); s < 8 {
		return s
	}
	return 8
}

// appendRxpk appends copy c of frame n as one rxpk object, in the field
// order and number formatting of udpfwd.Packet.Marshal.
func (t *liveTraffic) appendRxpk(b []byte, n, c int) []byte {
	dev := int(t.order[n%t.devices])
	b = append(b, `{"tmst":`...)
	b = strconv.AppendUint(b, uint64(n), 10)
	b = append(b, `,"freq":`...)
	b = append(b, t.freqs[dev%len(t.freqs)]...)
	b = append(b, `,"chan":`...)
	b = strconv.AppendInt(b, int64(dev%8), 10)
	b = append(b, `,"rfch":`...)
	b = strconv.AppendInt(b, int64(dev%8/4), 10)
	b = append(b, `,"stat":1,"modu":"LORA","datr":"SF12BW125","codr":"4/5","rssi":`...)
	b = strconv.AppendInt(b, int64(-60-dev%40-3*c), 10)
	b = append(b, `,"lsnr":`...)
	b = strconv.AppendFloat(b, t.snr(n), 'f', -1, 64)
	b = append(b, `,"size":23,"data":"`...)
	off := (n - t.base) * livePHYLen
	b = base64.StdEncoding.AppendEncode(b, t.phy[off:off+livePHYLen])
	return append(b, `"}`...)
}

// liveDatagram is one assembled PUSH_DATA and the frames it carries.
type liveDatagram struct {
	buf    []byte
	frames [liveRxpks]uint32
	n      int
}

// liveAssembler turns the frame sequence into each gateway's datagram
// stream. Not safe for concurrent use: the generator goroutine owns it.
type liveAssembler struct {
	t     *liveTraffic
	next  int // next frame index
	token uint16
	open  [liveGateways]*liveDatagram
	ready []*liveDatagram // complete, oldest first
	free  []*liveDatagram
}

func newLiveAssembler(t *liveTraffic) *liveAssembler { return &liveAssembler{t: t} }

func (a *liveAssembler) fresh(gw int) *liveDatagram {
	var d *liveDatagram
	if k := len(a.free); k > 0 {
		d, a.free = a.free[k-1], a.free[:k-1]
	} else {
		d = &liveDatagram{buf: make([]byte, 0, 2048)}
	}
	a.token++
	d.n = 0
	d.buf = append(d.buf[:0], udpfwd.ProtocolVersion, byte(a.token>>8), byte(a.token), byte(udpfwd.PushData))
	d.buf = binary.BigEndian.AppendUint64(d.buf, uint64(gw))
	d.buf = append(d.buf, `{"rxpk":[`...)
	return d
}

// pop returns the next complete datagram, or nil once the prepared frames
// are exhausted. The caller hands it back with release after sending.
func (a *liveAssembler) pop() *liveDatagram {
	for len(a.ready) == 0 {
		if a.next >= a.t.base+a.t.count {
			return nil
		}
		n := a.next
		a.next++
		count, first := a.t.copies(n)
		for c := 0; c < count; c++ {
			gw := (first + c) % liveGateways
			d := a.open[gw]
			if d == nil {
				d = a.fresh(gw)
				a.open[gw] = d
			}
			if d.n > 0 {
				d.buf = append(d.buf, ',')
			}
			d.buf = a.t.appendRxpk(d.buf, n, c)
			d.frames[d.n] = uint32(n)
			d.n++
			if d.n == liveRxpks {
				d.buf = append(d.buf, `]}`...)
				a.ready = append(a.ready, d)
				a.open[gw] = nil
			}
		}
	}
	d := a.ready[0]
	a.ready = a.ready[1:]
	return d
}

func (a *liveAssembler) release(d *liveDatagram) { a.free = append(a.free, d) }

// discard drops every datagram still being filled or not yet sent — the
// end of a phase. The copies in them are never offered.
func (a *liveAssembler) discard() {
	for gw, d := range a.open {
		if d != nil {
			a.release(d)
			a.open[gw] = nil
		}
	}
	for _, d := range a.ready {
		a.release(d)
	}
	a.ready = a.ready[:0]
}
