package udpfwd

import (
	"net"
	"testing"
	"time"
)

func TestParseImpairment(t *testing.T) {
	im, err := ParseImpairment("drop=0.1,dup=0.05,reorder=0.2,delay=20ms")
	if err != nil {
		t.Fatal(err)
	}
	if im.Drop != 0.1 || im.Duplicate != 0.05 || im.Reorder != 0.2 || im.Delay != 20*time.Millisecond {
		t.Errorf("parsed = %+v", im)
	}
	if im, err := ParseImpairment(""); err != nil || !im.zero() {
		t.Errorf("empty spec: %+v, %v", im, err)
	}
	if im, err := ParseImpairment(" drop=1 "); err != nil || im.Drop != 1 {
		t.Errorf("spaced spec: %+v, %v", im, err)
	}
	for _, bad := range []string{
		"drop",           // no value
		"jitter=5",       // unknown key
		"drop=oops",      // bad float
		"delay=fast",     // bad duration
		"drop=1.5",       // probability out of range
		"reorder=-0.1",   // negative probability
		"delay=-5ms",     // negative delay
		"drop=0.1;dup=1", // wrong separator
	} {
		if _, err := ParseImpairment(bad); err == nil {
			t.Errorf("spec %q must be rejected", bad)
		}
	}
}

func TestSetImpairmentValidates(t *testing.T) {
	fwd, err := NewForwarder(1, "127.0.0.1:9", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	if err := fwd.SetImpairment(Impairment{Drop: 2}, 1); err == nil {
		t.Error("out-of-range drop must be rejected")
	}
	if err := fwd.SetImpairment(Impairment{Drop: 0.5}, 1); err != nil {
		t.Errorf("valid impairment rejected: %v", err)
	}
	// A zero impairment detaches.
	if err := fwd.SetImpairment(Impairment{}, 1); err != nil {
		t.Errorf("detach rejected: %v", err)
	}
	if fwd.impair != nil {
		t.Error("zero impairment must detach")
	}
}

// TestImpairmentDropAll starves the server of every datagram: Push must
// exhaust its retries and fail, with every attempt counted as dropped.
func TestImpairmentDropAll(t *testing.T) {
	eachLoop(t, func(t *testing.T, bridge *BatchBridge, c *collector) {
		fwd, err := NewForwarder(1, bridge.Addr().String(), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		defer fwd.Close()
		fwd.RetryInterval = 10 * time.Millisecond
		fwd.MaxRetries = 2
		if err := fwd.SetImpairment(Impairment{Drop: 1}, 7); err != nil {
			t.Fatal(err)
		}
		if err := fwd.Push([]RXPK{testRXPK(1)}, nil); err == nil {
			t.Fatal("push through a fully dropped backhaul must fail")
		}
		if st := fwd.ImpairStats(); st.Dropped < 3 {
			t.Errorf("dropped = %d, want >= 3 (every attempt)", st.Dropped)
		}
		if st := bridge.Stats(); st.Datagrams != 0 || c.count() != 0 {
			t.Errorf("bridge saw traffic through a fully dropped backhaul: %+v", st)
		}
	})
}

// TestImpairmentDuplicate doubles every datagram: the bridge receives
// the same PUSH_DATA twice and — having no dedup of its own, that is the
// network server's job — delivers the uplink twice.
func TestImpairmentDuplicate(t *testing.T) {
	eachLoop(t, func(t *testing.T, bridge *BatchBridge, c *collector) {
		fwd, err := NewForwarder(2, bridge.Addr().String(), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		defer fwd.Close()
		if err := fwd.SetImpairment(Impairment{Duplicate: 1}, 7); err != nil {
			t.Fatal(err)
		}
		if err := fwd.Push([]RXPK{testRXPK(1)}, nil); err != nil {
			t.Fatalf("push: %v", err)
		}
		waitFor(t, "both copies", func() bool { return c.count() == 2 })
		for i, up := range c.frames {
			if up.EUI != 2 {
				t.Errorf("uplink %d EUI = %v", i, up.EUI)
			}
		}
		if st := fwd.ImpairStats(); st.Duplicated == 0 {
			t.Error("duplication not counted")
		}
	})
}

// TestImpairmentReorder holds the first PUSH_DATA back; the retry
// completes the swap (retry out first, held datagram after it) and both
// reach the bridge, so the push still succeeds and nothing is lost.
func TestImpairmentReorder(t *testing.T) {
	eachLoop(t, func(t *testing.T, bridge *BatchBridge, c *collector) {
		fwd, err := NewForwarder(3, bridge.Addr().String(), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		defer fwd.Close()
		fwd.RetryInterval = 20 * time.Millisecond
		fwd.MaxRetries = 3
		// Let the construction-time PULL_DATA keepalive out first, so the
		// datagram the swap holds is the first PUSH_DATA attempt.
		waitFor(t, "PULL_DATA registration", func() bool { return bridge.hasPullPath(3) })
		if err := fwd.SetImpairment(Impairment{Reorder: 1}, 7); err != nil {
			t.Fatal(err)
		}
		if err := fwd.Push([]RXPK{testRXPK(1)}, nil); err != nil {
			t.Fatalf("push through reordering backhaul: %v", err)
		}
		if st := fwd.ImpairStats(); st.Reordered == 0 {
			t.Error("reorder not counted")
		}
		// Both the swapped pair's datagrams arrive; each delivers the rxpk.
		waitFor(t, "the swapped pair", func() bool { return c.count() == 2 })
	})
}

// TestImpairmentDelay postpones datagrams without losing them.
func TestImpairmentDelay(t *testing.T) {
	eachLoop(t, func(t *testing.T, bridge *BatchBridge, c *collector) {
		fwd, err := NewForwarder(4, bridge.Addr().String(), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		defer fwd.Close()
		fwd.RetryInterval = 500 * time.Millisecond
		if err := fwd.SetImpairment(Impairment{Delay: 30 * time.Millisecond}, 7); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := fwd.Push([]RXPK{testRXPK(1)}, nil); err != nil {
			t.Fatalf("push: %v", err)
		}
		if since := time.Since(start); since < 30*time.Millisecond {
			t.Errorf("ack arrived in %v, before the 30ms delay", since)
		}
		if st := fwd.ImpairStats(); st.Delayed == 0 {
			t.Error("delay not counted")
		}
		waitFor(t, "the delayed uplink", func() bool { return c.count() == 1 })
	})
}

// rawPeer is a bare UDP socket aimed at the bridge, for sending
// malformed datagrams no Forwarder would produce.
type rawPeer struct {
	conn *net.UDPConn
}

func newRawPeer(t *testing.T, b *BatchBridge) *rawPeer {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawPeer{conn: conn}
}

func (r *rawPeer) send(t *testing.T, raw []byte) {
	t.Helper()
	if _, err := r.conn.Write(raw); err != nil {
		t.Fatal(err)
	}
}

func (r *rawPeer) read(t *testing.T) []byte {
	t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	n, err := r.conn.Read(buf)
	if err != nil {
		t.Fatalf("read from bridge: %v", err)
	}
	return buf[:n]
}

// TestBridgeSurvivesMalformedDatagrams pelts the bridge with truncated
// and unparseable datagrams; it must ignore all of them and keep
// serving well-formed traffic on the same socket.
func TestBridgeSurvivesMalformedDatagrams(t *testing.T) {
	eachLoop(t, func(t *testing.T, bridge *BatchBridge, c *collector) {
		peer := newRawPeer(t, bridge)

		for _, raw := range [][]byte{
			{},                    // empty datagram
			{2},                   // truncated header
			{2, 0, 0},             // one byte short of a header
			{7, 0, 0, 0},          // unknown protocol version
			{2, 0, 0, 99},         // unknown packet type
			{2, 0, 1, 0, 1, 2, 3}, // PUSH_DATA truncated inside the EUI
			{2, 0, 1, 2, 1, 2, 3}, // PULL_DATA truncated inside the EUI
			append([]byte{2, 0, 1, 3}, "not json"...), // PULL_RESP with broken JSON
		} {
			peer.send(t, raw)
		}
		// A whole header with a broken body is received — acked and
		// counted — and fails in the parser, not on the socket.
		peer.send(t, append([]byte{2, 0, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8}, '{'))
		if ack, err := Unmarshal(peer.read(t)); err != nil || ack.Type != PushAck || ack.Token != 1 {
			t.Fatalf("broken-JSON PUSH_DATA: ack = %+v, %v", ack, err)
		}

		// The socket must still answer a valid PUSH_DATA afterwards.
		good, err := (&Packet{Type: PushData, Token: 0x0BAD, EUI: 0x11,
			RXPKs: []RXPK{testRXPK(1)}}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		peer.send(t, good)
		ack, err := Unmarshal(peer.read(t))
		if err != nil || ack.Type != PushAck || ack.Token != 0x0BAD {
			t.Fatalf("no PUSH_ACK after garbage: %+v, %v", ack, err)
		}
		waitFor(t, "the uplink after garbage", func() bool { return c.count() == 1 })
		if up := c.frames[0]; up.EUI != 0x11 {
			t.Errorf("uplink EUI = %v", up.EUI)
		}
		if st := bridge.Stats(); st.Datagrams != 2 || st.ParseErrors != 1 {
			t.Errorf("stats = %+v, want 2 datagrams accepted and 1 parse error", st)
		}
	})
}

// TestDuplicatePushDataAckedTwice pins the at-least-once contract of
// the protocol layer: a retransmitted PUSH_DATA (same token) gets its
// own PUSH_ACK — the ack the forwarder's retry is waiting for must
// never be suppressed by dedup — and the uplink is delivered once per
// datagram, leaving dedup to the network server.
func TestDuplicatePushDataAckedTwice(t *testing.T) {
	eachLoop(t, func(t *testing.T, bridge *BatchBridge, c *collector) {
		peer := newRawPeer(t, bridge)

		raw, err := (&Packet{Type: PushData, Token: 0x7777, EUI: 0x22,
			RXPKs: []RXPK{testRXPK(1)}}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		peer.send(t, raw)
		peer.send(t, raw)
		for i := 0; i < 2; i++ {
			ack, err := Unmarshal(peer.read(t))
			if err != nil || ack.Type != PushAck || ack.Token != 0x7777 {
				t.Fatalf("ack %d = %+v, %v", i, ack, err)
			}
		}
		waitFor(t, "one uplink per datagram", func() bool { return c.count() == 2 })
	})
}

// TestForwarderIgnoresDuplicateAck covers the forwarder side of the
// same race: the duplicate PUSH_ACK for an already-completed token must
// be ignored, not crash the ack bookkeeping, and later pushes still
// work.
func TestForwarderIgnoresDuplicateAck(t *testing.T) {
	eachLoop(t, func(t *testing.T, bridge *BatchBridge, _ *collector) {
		fwd, err := NewForwarder(5, bridge.Addr().String(), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		defer fwd.Close()
		// Duplicate=1 means every PUSH_DATA arrives twice and is acked
		// twice; the second ack for each token is the duplicate to survive.
		if err := fwd.SetImpairment(Impairment{Duplicate: 1}, 7); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := fwd.Push([]RXPK{testRXPK(byte(i))}, nil); err != nil {
				t.Fatalf("push %d: %v", i, err)
			}
		}
	})
}

// TestCloseFlushesHeldDatagram pins the no-loss guarantee of the
// reorder swap: a datagram still parked when the forwarder closes is
// emitted, not dropped.
func TestCloseFlushesHeldDatagram(t *testing.T) {
	eachLoop(t, func(t *testing.T, bridge *BatchBridge, c *collector) {
		fwd, err := NewForwarder(6, bridge.Addr().String(), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		// Let the construction-time PULL_DATA keepalive out before arming
		// the impairment, so the held slot is empty when Push writes.
		waitFor(t, "PULL_DATA registration", func() bool { return bridge.hasPullPath(6) })
		if err := fwd.SetImpairment(Impairment{Reorder: 1}, 7); err != nil {
			t.Fatal(err)
		}
		fwd.RetryInterval = 10 * time.Millisecond
		fwd.MaxRetries = 0
		// The single attempt is held by the reorder swap, so Push fails...
		if err := fwd.Push([]RXPK{testRXPK(1)}, nil); err == nil {
			t.Fatal("push whose only attempt was held must time out")
		}
		// ... but Close flushes the parked datagram and the uplink arrives.
		fwd.Close()
		waitFor(t, "the held datagram", func() bool { return c.count() == 1 })
	})
}
