// Command alphawan-server runs a LoRaWAN network server that speaks the
// Semtech UDP packet-forwarder protocol: gateways (real or simulated with
// alphawan-gwsim) push uplinks, the server verifies MICs, deduplicates,
// logs metadata for the AlphaWAN planner, and answers MAC-command
// downlinks (ADR, channel plans) through the gateways' PULL path.
//
// Usage:
//
//	alphawan-server -listen :1700 -devices 16
//
// Device sessions are provisioned deterministically (the same derivation
// alphawan-gwsim uses), so the pair works out of the box.
//
// Ingest runs on the batched bridge: a dedicated socket reader feeds
// per-worker rings and the workers parse rxpks with the allocation-free
// scanner before handing frames to the sharded session table. On SIGINT
// the server stops accepting, drains every queued datagram, then waits
// briefly for gateways to acknowledge in-flight downlinks before
// reporting final counters.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"time"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/frame"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/netserver"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/udpfwd"
)

// provision registers n deterministic device sessions (DevAddr 0x0200_0001
// onward), matching alphawan-gwsim's derivation.
func provision(s *netserver.Server, n int) {
	appKey := frame.AESKey{0x2b, 0x7e, 0x15, 0x16}
	for i := 1; i <= n; i++ {
		addr := frame.DevAddr(0x02000000 | uint32(i))
		nwk, app, err := frame.DeriveSessionKeys(appKey, [3]byte{0x01}, [3]byte{0x13}, uint16(i))
		if err != nil {
			log.Fatalf("provision: %v", err)
		}
		s.Register(addr, nwk, app, lora.DR0, 0)
	}
}

// lastSeen remembers, per device, which gateway heard it best most
// recently and on what radio parameters — the anchor for RX1 downlinks.
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

func main() {
	listen := flag.String("listen", ":1700", "UDP listen address (packet-forwarder port)")
	devices := flag.Int("devices", 16, "number of provisioned device sessions")
	workers := flag.Int("workers", 0, "uplink parse workers (0 = bridge default)")
	verbose := flag.Bool("verbose", false, "log every delivered uplink (slow at load)")
	flushWait := flag.Duration("flush-wait", 2*time.Second,
		"how long shutdown waits for gateways to ack in-flight downlinks")
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	st, bst, err := run(*listen, *devices, *workers, *verbose, *flushWait, sig, func(addr *net.UDPAddr) {
		log.Printf("alphawan-server: UDP bridge on %s, %d sessions", addr, *devices)
	})
	if err != nil {
		log.Fatalf("alphawan-server: %v", err)
	}
	log.Printf("alphawan-server: served %d uplinks (%d delivered, %d duplicates, %d ADR commands), "+
		"%d datagrams (%d overload-dropped), %d/%d downlinks acked, shutting down",
		st.Uplinks, st.Delivered, st.Duplicates, st.ADRCommands,
		bst.Datagrams, bst.OverloadDrops, bst.DownlinkAcks, bst.DownlinksSent)
}

// run is the server behind the flags: it provisions the sessions, wires
// server and bridge together, calls ready with the bound address, serves
// until stop delivers, shuts down in phases and returns the final
// counters.
func run(listen string, devices, workers int, verbose bool, flushWait time.Duration,
	stop <-chan os.Signal, ready func(*net.UDPAddr)) (netserver.ServerStats, udpfwd.BridgeStats, error) {
	srv := netserver.New()
	srv.ADREnabled = true
	provision(srv, devices)
	seen := &lastSeen{gws: make(map[frame.DevAddr]udpfwd.UplinkFrame)}

	if verbose {
		srv.Served.Subscribe(func(d netserver.Data) {
			log.Printf("uplink dev=%v fport=%d payload=%q gw=%d snr=%.1f",
				d.Dev.Addr, d.FPort, d.Payload, d.Meta.Gateway, d.Meta.SNRdB)
		})
	}

	// MAC commands (ADR retargets, channel plans) ride the PULL path as
	// RX1 downlinks through whichever gateway last heard the device.
	// Subscribed before the bridge exists: its workers publish on this
	// topic from their first uplink, and Subscribe must not race them.
	// bridgeUp is closed once bridge is assigned, ordering that write
	// before a worker's read.
	var bridge *udpfwd.BatchBridge
	bridgeUp := make(chan struct{})
	srv.Commands.Subscribe(func(c netserver.Command) {
		up, ok := seen.get(c.Dev.Addr)
		if !ok {
			return // never heard live; nowhere to transmit
		}
		raw, err := srv.BuildCommandDownlink(c.Dev, c.Cmds)
		if err != nil {
			log.Printf("downlink build dev=%v: %v", c.Dev.Addr, err)
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
		<-bridgeUp
		if err := bridge.SendDownlink(up.EUI, tx); err != nil && verbose {
			log.Printf("downlink dev=%v gw=%d: %v", c.Dev.Addr, up.EUI, err)
		}
	})

	bridge, err := udpfwd.NewBatchBridge(listen, udpfwd.Options{
		Workers: workers,
		Handler: func(up *udpfwd.UplinkFrame) {
			meta := netserver.UplinkMeta{
				Gateway: int(up.EUI),
				Freq:    region.Hz(up.FreqHz),
				DR:      up.DR,
				RSSIdBm: float64(up.RSSIdBm),
				SNRdB:   up.SNRdB,
				At:      des.Time(up.Tmst),
			}
			// 4-byte DevAddr sits at offset 1 of every data frame; noting
			// it before HandleUplink keeps the RX1 anchor fresh even for
			// duplicate copies (a retransmitting device may have moved).
			if len(up.Raw) >= 5 {
				addr := frame.DevAddr(uint32(up.Raw[1]) | uint32(up.Raw[2])<<8 |
					uint32(up.Raw[3])<<16 | uint32(up.Raw[4])<<24)
				seen.note(addr, up)
			}
			if err := srv.HandleUplink(up.Raw, meta); err != nil && verbose {
				log.Printf("uplink rejected: %v", err)
			}
		},
	})
	if err != nil {
		return netserver.ServerStats{}, udpfwd.BridgeStats{}, err
	}
	close(bridgeUp)
	ready(bridge.Addr())

	<-stop

	// Phased shutdown: stop accepting uplinks but keep the socket open,
	// let the workers finish every queued datagram (those uplinks may
	// trigger final downlinks, which still need the socket), then give
	// gateways a bounded window to ack before tearing down.
	log.Printf("alphawan-server: draining")
	bridge.DrainUplinks()
	if !bridge.FlushDownlinks(flushWait) {
		bst := bridge.Stats()
		log.Printf("alphawan-server: %d downlinks unacked after %v",
			bst.DownlinksSent-bst.DownlinkAcks, flushWait)
	}
	bridge.Close()
	return srv.Stats(), bridge.Stats(), nil
}
