package udpfwd

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/alphawan/alphawan/internal/lora"
)

func TestMarshalUnmarshalPushData(t *testing.T) {
	in := Packet{
		Type: PushData, Token: 0x1234, EUI: 0xAA01020304050607,
		RXPKs: []RXPK{{
			Tmst: 123456, Freq: 923.2, Chan: 3, Stat: 1,
			Modu: "LORA", Datr: "SF7BW125", CodR: "4/5",
			RSSI: -97, LSNR: 5.5, Size: 23, Data: EncodeData([]byte("hello")),
		}},
	}
	raw, err := in.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] != ProtocolVersion || PacketType(raw[3]) != PushData {
		t.Errorf("header = % x", raw[:4])
	}
	out, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.Token != in.Token || out.EUI != in.EUI || len(out.RXPKs) != 1 {
		t.Fatalf("out = %+v", out)
	}
	if out.RXPKs[0].Datr != "SF7BW125" || out.RXPKs[0].RSSI != -97 {
		t.Errorf("rxpk = %+v", out.RXPKs[0])
	}
	data, err := DecodeData(out.RXPKs[0].Data)
	if err != nil || string(data) != "hello" {
		t.Errorf("data = %q, %v", data, err)
	}
}

func TestMarshalUnmarshalPullResp(t *testing.T) {
	in := Packet{Type: PullResp, TX: &TXPK{
		Imme: true, Freq: 923.4, Powe: 14, Modu: "LORA",
		Datr: "SF9BW125", CodR: "4/5", Size: 12, Data: EncodeData([]byte("downlink!")),
	}}
	raw, err := in.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.TX == nil || out.TX.Datr != "SF9BW125" || !out.TX.Imme {
		t.Errorf("txpk = %+v", out.TX)
	}
}

func TestMarshalHeaderOnlyTypes(t *testing.T) {
	for _, typ := range []PacketType{PushAck, PullAck} {
		p := Packet{Type: typ, Token: 42}
		raw, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) != 4 {
			t.Errorf("%v should be 4 bytes, got %d", typ, len(raw))
		}
		out, err := Unmarshal(raw)
		if err != nil || out.Token != 42 {
			t.Errorf("%v round trip failed: %+v %v", typ, out, err)
		}
	}
}

func TestPullDataCarriesEUI(t *testing.T) {
	p := Packet{Type: PullData, Token: 7, EUI: 0xDEADBEEF}
	raw, _ := p.Marshal()
	if len(raw) != 12 {
		t.Fatalf("PULL_DATA should be 12 bytes, got %d", len(raw))
	}
	out, err := Unmarshal(raw)
	if err != nil || out.EUI != 0xDEADBEEF {
		t.Errorf("out = %+v, %v", out, err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{2, 0, 0}); err == nil {
		t.Error("short datagram must fail")
	}
	if _, err := Unmarshal([]byte{1, 0, 0, 0}); err == nil {
		t.Error("wrong version must fail")
	}
	if _, err := Unmarshal([]byte{2, 0, 0, 99}); err == nil {
		t.Error("unknown type must fail")
	}
	if _, err := Unmarshal([]byte{2, 0, 0, 0, 1, 2}); err == nil {
		t.Error("PUSH_DATA without EUI must fail")
	}
	bad := []byte{2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, '{'}
	if _, err := Unmarshal(bad); err == nil {
		t.Error("malformed JSON must fail")
	}
}

func TestMarshalPullRespWithoutTXPK(t *testing.T) {
	p := Packet{Type: PullResp}
	if _, err := p.Marshal(); err == nil {
		t.Error("PULL_RESP without txpk must fail")
	}
}

func TestDatrRoundTrip(t *testing.T) {
	f := func(raw uint8) bool {
		d := lora.DR(raw % 6)
		got, err := ParseDatr(DatrString(d))
		return err == nil && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := ParseDatr("SF7BW500"); err == nil {
		t.Error("500 kHz must be rejected")
	}
	if _, err := ParseDatr("SF99BW125"); err == nil {
		t.Error("SF99 must be rejected")
	}
	if _, err := ParseDatr("garbage"); err == nil {
		t.Error("garbage must be rejected")
	}
}

// eachLoop runs fn against a fresh BatchBridge on both ingest loops: the
// platform's batched one (recvmmsg where available) and the portable
// per-datagram fallback.
func eachLoop(t *testing.T, fn func(t *testing.T, b *BatchBridge, c *collector)) {
	for _, portable := range []bool{false, true} {
		name := "batched"
		if portable {
			name = "portable"
		}
		t.Run(name, func(t *testing.T) {
			c := &collector{}
			b, err := NewBatchBridge("127.0.0.1:0",
				Options{Workers: 2, Handler: c.handle, forcePortable: portable})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			fn(t, b, c)
		})
	}
}

// TestBridgeForwarderEndToEnd exercises the real UDP path: uplink push
// with ack, status report, keepalive, and a downlink response.
func TestBridgeForwarderEndToEnd(t *testing.T) {
	eachLoop(t, func(t *testing.T, bridge *BatchBridge, c *collector) {
		fwd, err := NewForwarder(0x0102030405060708, bridge.Addr().String(), 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		defer fwd.Close()

		// Uplink with acknowledgment.
		if err := fwd.Push([]RXPK{testRXPK(1)}, &Stat{RXNb: 1, RXOK: 1}); err != nil {
			t.Fatalf("push: %v", err)
		}
		waitFor(t, "the uplink", func() bool { return c.count() == 1 })
		if up := c.frames[0]; up.EUI != 0x0102030405060708 || up.DR != lora.DRFromSF(9) {
			t.Errorf("uplink = %+v", up)
		}

		// Status report recorded.
		if st, ok := bridge.GatewayStat(0x0102030405060708); !ok || st.RXNb != 1 {
			t.Errorf("stat = %+v, %v", st, ok)
		}

		// Downlink: wait for the keepalive to open the path, then respond.
		deadline := time.Now().Add(2 * time.Second)
		for {
			err = bridge.SendDownlink(0x0102030405060708, TXPK{
				Imme: true, Freq: 923.4, Powe: 14, Modu: "LORA",
				Datr: "SF9BW125", CodR: "4/5", Size: 4, Data: EncodeData([]byte("pong")),
			})
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("downlink: %v", err)
		}
		select {
		case tx := <-fwd.Downlinks():
			if tx.Datr != "SF9BW125" {
				t.Errorf("downlink = %+v", tx)
			}
			data, _ := DecodeData(tx.Data)
			if string(data) != "pong" {
				t.Errorf("downlink data = %q", data)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("forwarder never received the downlink")
		}
	})
}

func TestDownlinkWithoutPullPathFails(t *testing.T) {
	bridge, err := NewBatchBridge("127.0.0.1:0", Options{Handler: func(*UplinkFrame) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()
	if err := bridge.SendDownlink(0x42, TXPK{}); err == nil {
		t.Error("downlink to an unseen gateway must fail")
	}
}

func TestPushTimesOutWithoutServer(t *testing.T) {
	// Dial a port with nothing listening: Push must give up after retries.
	fwd, err := NewForwarder(1, "127.0.0.1:9", time.Hour) // discard port
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	fwd.RetryInterval = 10 * time.Millisecond
	fwd.MaxRetries = 2
	start := time.Now()
	if err := fwd.Push([]RXPK{{}}, nil); err == nil {
		t.Error("push with no server must fail")
	}
	if time.Since(start) > time.Second {
		t.Error("retries must be bounded")
	}
}

func TestTypeStrings(t *testing.T) {
	for _, typ := range []PacketType{PushData, PushAck, PullData, PullResp, PullAck, TXAck} {
		if typ.String() == "" {
			t.Error("missing stringer")
		}
	}
	if PacketType(77).String() == "" {
		t.Error("unknown type must format")
	}
}

func TestEUIString(t *testing.T) {
	if EUI(0xAB).String() != "00000000000000ab" {
		t.Errorf("EUI string = %s", EUI(0xAB).String())
	}
}
