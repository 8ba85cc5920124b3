// Livestack: the end-to-end networked pipeline in one process — a
// ChirpStack-style network server behind a Semtech UDP packet-forwarder
// bridge, a simulated gateway fleet pushing real LoRaWAN frames over real
// UDP sockets, and the server deduplicating, MIC-verifying, and running
// ADR on the uplinks.
//
//	go run ./examples/livestack
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"github.com/alphawan/alphawan/alphawan"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/gateway"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/netserver"
	"github.com/alphawan/alphawan/internal/node"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/traffic"
	"github.com/alphawan/alphawan/internal/udpfwd"
)

const devices = 12

func main() {
	// 1. Network server + UDP bridge (the "cloud" side). The bridge calls
	// its handler — and through it the server's subscribers — from
	// several workers at once, so what they count is atomic.
	srv := alphawan.NewNetServer()
	srv.ADREnabled = true
	var delivered atomic.Int64
	srv.Served.Subscribe(func(d netserver.Data) {
		if delivered.Add(1) <= 5 {
			log.Printf("app data from %v via gw %d (SNR %.1f dB): %q",
				d.Dev.Addr, d.Meta.Gateway, d.Meta.SNRdB, d.Payload)
		}
	})

	bridge, err := alphawan.NewBatchBridge("127.0.0.1:0", alphawan.BridgeOptions{
		Handler: func(up *alphawan.UplinkFrame) {
			srv.HandleUplink(up.Raw, netserver.UplinkMeta{
				Gateway: int(up.EUI), Freq: region.Hz(up.FreqHz),
				DR: up.DR, RSSIdBm: float64(up.RSSIdBm), SNRdB: up.SNRdB,
				At: des.Time(up.Tmst),
			})
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer bridge.Close()
	log.Printf("network server bridge on %s", bridge.Addr())

	// 2. The "field" side: a simulated medium with two gateways, each
	// forwarding over a real UDP socket.
	env := alphawan.Urban(1)
	env.ShadowSigma = 0
	sim := des.New(1)
	med := medium.New(sim, env)
	cfgs := alphawan.StandardConfigs(alphawan.AS923, 2, 0x34)
	var uplinks int
	for i := 0; i < 2; i++ {
		gw, err := gateway.New(sim, med, i, alphawan.RAK7268CV2,
			alphawan.Pt(float64(i)*40, 0), alphawan.Antenna{}, cfgs[i])
		if err != nil {
			log.Fatal(err)
		}
		fwd, err := alphawan.NewForwarder(udpfwd.EUI(i), bridge.Addr().String(), 2*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		defer fwd.Close()
		gw.Uplinks.Subscribe(func(u gateway.Uplink) {
			uplinks++ // on the simulator's goroutine only
			if err := fwd.Push([]udpfwd.RXPK{{
				Tmst: uint32(u.At), Freq: float64(u.TX.Channel.Center) / 1e6,
				Chan: u.Meta.Chain, Stat: 1, Modu: "LORA",
				Datr: udpfwd.DatrString(u.TX.DR), CodR: "4/5",
				RSSI: int(u.Meta.RSSIdBm), LSNR: u.Meta.SNRdB,
				Size: len(u.TX.Raw), Data: udpfwd.EncodeData(u.TX.Raw),
			}}, nil); err != nil {
				log.Printf("gw %d push: %v", u.GW.ID, err)
			}
		})
	}

	// 3. Devices: register the sessions server-side, then generate
	// traffic. (A production deployment would provision via OTAA join.)
	for i := 0; i < devices; i++ {
		nd := node.New(medium.NodeID(i+1), 1, 0x34, alphawan.Pt(100+float64(i)*9, 60))
		// Distinct (channel, data-rate) settings keep the demo's packets
		// from colliding with each other.
		nd.Channels = []alphawan.Channel{alphawan.AS923.Channel(i % 8)}
		nd.DR = alphawan.DR(i % 6)
		srv.Register(nd.DevAddr, nd.NwkSKey, nd.AppSKey, nd.DR, 0)
		traffic.StartPoisson(med, nd, 0, 60*des.Second, 4*des.Second)
	}

	log.Printf("simulating 60 s of traffic from %d devices through 2 gateways...", devices)
	sim.RunUntil(61 * des.Second)
	// Every Push above returned on its PUSH_ACK, so the bridge has queued
	// every datagram; Drain serves them all before the counters are read.
	bridge.Drain()

	log.Printf("gateway uplink callbacks: %d", uplinks)
	st := srv.Stats()
	fmt.Printf("\nserver stats: %d gateway copies, %d delivered, %d duplicates, %d bad MICs, %d ADR commands\n",
		st.Uplinks, st.Delivered, st.Duplicates, st.BadMIC, st.ADRCommands)
	if st.Delivered == 0 || st.BadMIC != 0 {
		panic("live stack failed")
	}
	fmt.Println("end-to-end UDP LoRaWAN stack: OK")
}
