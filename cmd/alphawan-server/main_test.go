package main

import (
	"net"
	"os"
	"testing"
	"time"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/frame"
	"github.com/alphawan/alphawan/internal/netserver"
	"github.com/alphawan/alphawan/internal/udpfwd"
)

const testDevices = 32

// sessionKeys repeats provision's derivation for device dev — the
// contract alphawan-gwsim relies on too.
func sessionKeys(t *testing.T, dev int) (nwk, app frame.AESKey) {
	t.Helper()
	nwk, app, err := frame.DeriveSessionKeys(frame.AESKey{0x2b, 0x7e, 0x15, 0x16},
		[3]byte{0x01}, [3]byte{0x13}, uint16(dev))
	if err != nil {
		t.Fatal(err)
	}
	return nwk, app
}

// uplink builds device dev's fcnt-th data frame as the rxpk a gateway
// would report at counter tmst and the given SNR.
func uplink(t *testing.T, dev int, fcnt uint32, tmst uint32, snr float64) udpfwd.RXPK {
	t.Helper()
	nwk, app := sessionKeys(t, dev)
	fport := uint8(1)
	raw, err := frame.Encode(&frame.Frame{
		MType: frame.UnconfirmedDataUp, DevAddr: frame.DevAddr(0x02000000 | uint32(dev)),
		ADR: true, FCnt: fcnt, FPort: &fport, Payload: []byte("hi"),
	}, nwk, &app)
	if err != nil {
		t.Fatal(err)
	}
	return udpfwd.RXPK{
		Tmst: tmst, Freq: 923.2, RFCh: 1, Stat: 1, Modu: "LORA", Datr: "SF12BW125",
		CodR: "4/5", RSSI: -100, LSNR: snr, Size: len(raw), Data: udpfwd.EncodeData(raw),
	}
}

// TestServeDownlinkAndShutdown drives the binary's own wiring over
// loopback UDP: copies of one frame through two gateways are deduplicated,
// an ADR command comes back as an RX1 PULL_RESP through the gateway that
// heard the device last, and a stop signal serves every acknowledged
// uplink and collects every downlink's TX_ACK before run returns.
func TestServeDownlinkAndShutdown(t *testing.T) {
	type result struct {
		st  netserver.ServerStats
		bst udpfwd.BridgeStats
		err error
	}
	stop := make(chan os.Signal, 1)
	ready := make(chan *net.UDPAddr, 1)
	done := make(chan result, 1)
	go func() {
		st, bst, err := run("127.0.0.1:0", testDevices, 2, false, 5*time.Second, stop,
			func(a *net.UDPAddr) { ready <- a })
		done <- result{st, bst, err}
	}()
	var addr *net.UDPAddr
	select {
	case addr = <-ready:
	case r := <-done:
		t.Fatalf("run returned before serving: %v", r.err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never came up")
	}

	var fwds [2]*udpfwd.Forwarder
	for i := range fwds {
		f, err := udpfwd.NewForwarder(udpfwd.EUI(i+1), addr.String(), 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fwds[i] = f
	}
	a, b := fwds[0], fwds[1]
	copies := 0
	push := func(f *udpfwd.Forwarder, rx udpfwd.RXPK) {
		t.Helper()
		if err := f.Push([]udpfwd.RXPK{rx}, nil); err != nil {
			t.Fatalf("push: %v", err)
		}
		copies++
	}

	// One frame heard by both gateways, B first: delivered once, one
	// duplicate, and A is now where device 1 was heard last. −9 dB leaves
	// ADR 1 dB of margin at DR0 — no command yet.
	first := uplink(t, 1, 0, 1_000_000, -9)
	push(b, first)
	push(a, first)

	// Device 1's link improves by 2.5 dB a frame, heard by B alone; each
	// frame clears one more ADR step. The first command can only be lost
	// if it beats B's first PULL_DATA to the server, so retry on the next
	// frame.
	const rx1 = uint32(netserver.RX1Delay / des.Microsecond)
	var tx udpfwd.TXPK
	var tmst uint32
	adrFrames := 0
	for tx.Data == "" {
		if adrFrames == 8 {
			t.Fatal("no PULL_RESP on the gateway that last heard the device")
		}
		adrFrames++
		tmst = uint32(adrFrames+1) * 1_000_000
		push(b, uplink(t, 1, uint32(adrFrames), tmst, -6+2.5*float64(adrFrames-1)))
		select {
		case tx = <-b.Downlinks():
		case <-time.After(2 * time.Second):
		}
	}
	if tx.Tmst != tmst+rx1 || tx.Freq != 923.2 || tx.RFCh != 1 || tx.Datr != "SF12BW125" {
		t.Errorf("PULL_RESP = %+v, want RX1 of the uplink at tmst %d on its channel and data rate", tx, tmst)
	}
	raw, err := udpfwd.DecodeData(tx.Data)
	if err != nil {
		t.Fatal(err)
	}
	nwk, _ := sessionKeys(t, 1)
	down, err := frame.Decode(raw, nwk, nil)
	if err != nil {
		t.Fatalf("downlink does not verify under device 1's NwkSKey: %v", err)
	}
	cmds, err := frame.ParseCommands(down.FOpts, false)
	if err != nil || len(cmds) != 1 || cmds[0].CID != frame.CIDLinkADR || cmds[0].LinkADR.DataRate == 0 {
		t.Errorf("downlink commands = %+v, %v; want one LinkADRReq raising the data rate", cmds, err)
	}

	// A burst across the other devices and both gateways, then stop at
	// once: every push was acknowledged, so every one must be served.
	for dev := 2; dev <= testDevices; dev++ {
		push(fwds[dev%2], uplink(t, dev, 0, 20_000_000, -9))
	}
	stop <- os.Interrupt
	var r result
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after the stop signal")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	want := netserver.ServerStats{Uplinks: copies, Delivered: copies - 1, Duplicates: 1, ADRCommands: adrFrames}
	if r.st != want {
		t.Errorf("server stats = %+v, want %+v", r.st, want)
	}
	if r.bst.Datagrams != int64(copies) || r.bst.Uplinks != int64(copies) ||
		r.bst.OverloadDrops != 0 || r.bst.ParseErrors != 0 {
		t.Errorf("bridge stats = %+v, want %d datagrams all served", r.bst, copies)
	}
	if r.bst.DownlinksSent == 0 || r.bst.DownlinkAcks != r.bst.DownlinksSent {
		t.Errorf("%d of %d downlinks acked at shutdown", r.bst.DownlinkAcks, r.bst.DownlinksSent)
	}
	select {
	case tx := <-a.Downlinks():
		t.Errorf("gateway A, which heard device 1 before B did, got a downlink: %+v", tx)
	default:
	}
}
