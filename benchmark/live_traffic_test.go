package main

import (
	"bytes"
	"testing"

	"github.com/alphawan/alphawan/internal/frame"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/udpfwd"
)

// The hand-assembled datagram must be byte for byte what the repository's
// own Packet.Marshal produces for the same rxpks, so the server parses
// what a packet forwarder built on udpfwd would send.
func TestAssembledDatagramMatchesMarshal(t *testing.T) {
	tr := newLiveTraffic(7, 50)
	if err := tr.prepare(0, 400); err != nil {
		t.Fatal(err)
	}
	asm := newLiveAssembler(tr)
	seen := map[uint32]int{}
	for k := 0; k < 20; k++ {
		d := asm.pop()
		if d == nil {
			t.Fatal("assembler ran dry")
		}
		got, err := udpfwd.Unmarshal(d.buf)
		if err != nil {
			t.Fatalf("datagram %d does not parse: %v", k, err)
		}
		if got.Type != udpfwd.PushData || len(got.RXPKs) != liveRxpks {
			t.Fatalf("datagram %d: type %v with %d rxpk", k, got.Type, len(got.RXPKs))
		}
		again, err := got.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, d.buf) {
			t.Fatalf("datagram %d differs from Packet.Marshal:\n got %s\nwant %s", k, d.buf[12:], again[12:])
		}
		devs := map[frame.DevAddr]bool{}
		for i, rx := range got.RXPKs {
			if rx.Tmst != d.frames[i] {
				t.Errorf("rxpk %d tagged %d, assembler says frame %d", i, rx.Tmst, d.frames[i])
			}
			seen[rx.Tmst]++
			raw, err := udpfwd.DecodeData(rx.Data)
			if err != nil {
				t.Fatal(err)
			}
			dev := int(tr.order[int(rx.Tmst)%tr.devices])
			nwk, app, _ := liveKeys(dev)
			f, err := frame.NewDecoder(nwk, &app).Decode(raw)
			if err != nil {
				t.Fatalf("frame %d fails the server's decode: %v", rx.Tmst, err)
			}
			if f.DevAddr != liveAddr(dev) || f.FCnt != rx.Tmst/uint32(tr.devices) || !f.ADR {
				t.Errorf("frame %d decodes to dev %v fcnt %d adr %v", rx.Tmst, f.DevAddr, f.FCnt, f.ADR)
			}
			if dr, err := udpfwd.ParseDatr(rx.Datr); err != nil || dr != lora.DR0 {
				t.Errorf("datr %q", rx.Datr)
			}
			devs[f.DevAddr] = true
		}
		if len(devs) != liveRxpks {
			t.Errorf("datagram %d carries %d distinct devices, want %d", k, len(devs), liveRxpks)
		}
		asm.release(d)
	}
	for n, c := range seen {
		if want, _ := tr.copies(int(n)); c > want {
			t.Errorf("frame %d sent %d times, mix says %d", n, c, want)
		}
	}
}

func TestCopyMix(t *testing.T) {
	tr := newLiveTraffic(3, 10)
	total, hist := 0, map[int]int{}
	const n = 200_000
	for i := 0; i < n; i++ {
		c, first := tr.copies(i)
		if first < 0 || first >= liveGateways {
			t.Fatalf("frame %d first gateway %d", i, first)
		}
		total += c
		hist[c]++
	}
	if mean := float64(total) / n; mean < 1.39 || mean > 1.41 {
		t.Errorf("mean copies %.4f, want 1.4", mean)
	}
	if len(hist) != 3 {
		t.Errorf("copy counts %v, want 1, 2 and 3", hist)
	}
}

// prepare must lay a later range out exactly as a range starting at 0
// would have.
func TestPrepareRangesAgree(t *testing.T) {
	a, b := newLiveTraffic(5, 16), newLiveTraffic(5, 16)
	if err := a.prepare(0, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.prepare(37, 63); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.phy[37*livePHYLen:], b.phy) {
		t.Error("frames 37…99 differ between the two ranges")
	}
	// Every slot of the short range was written.
	if err := b.prepare(90, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.phy[90*livePHYLen:95*livePHYLen], b.phy) {
		t.Error("frames 90…94 differ")
	}
}
