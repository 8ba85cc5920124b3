// Command alphawan-gwsim simulates a gateway fleet speaking the Semtech
// UDP packet-forwarder protocol to alphawan-server: it runs the in-process
// LoRaWAN simulation (nodes, medium, COTS radio pipelines) and forwards
// every decoded uplink over real UDP.
//
// Usage:
//
//	alphawan-gwsim -server 127.0.0.1:1700 -gateways 3 -devices 16 -duration 30s
//	alphawan-gwsim -chipset sx1302-9if
//	alphawan-gwsim -impair drop=0.1,dup=0.05,reorder=0.1,delay=20ms -impair-seed 7
//
// The -chipset flag selects a concentrator front-end profile
// (radio.FrontEnds): the gateway's channel plan derives from the profile's
// RF-chain centers and IF offsets, PUSH_DATA batches are bounded by the
// HAL's per-poll demodulation fetch (MAX_RX_PKT), and PULL_RESP downlinks
// are validated against the profile's RX1 channels and RX2 SF12 window.
package main

import (
	"flag"
	"log"
	"strings"
	"sync/atomic"
	"time"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/gateway"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/node"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/traffic"
	"github.com/alphawan/alphawan/internal/udpfwd"
)

// pollInterval is the simulated HAL fetch cadence: pending rxpks are
// flushed into PUSH_DATA datagrams every poll, at most MaxRxPkt per
// datagram — the same bound the reference packet forwarder applies to
// lgw_receive.
const pollInterval = 10 * des.Millisecond

// downlinkStats counts PULL_RESP downlinks by receive window across the
// fleet. Atomics: the forwarder read loops run off the simulation
// goroutine.
type downlinkStats struct {
	rx1, rx2, rejected atomic.Int64
}

func chipsetNames() string {
	var names []string
	for _, fe := range radio.FrontEnds {
		names = append(names, fe.Name)
	}
	return strings.Join(names, ", ")
}

func main() {
	server := flag.String("server", "127.0.0.1:1700", "network server UDP address")
	gateways := flag.Int("gateways", 3, "simulated gateways")
	devices := flag.Int("devices", 16, "simulated devices")
	duration := flag.Duration("duration", 30*time.Second, "simulated duration")
	seed := flag.Int64("seed", 1, "simulation seed")
	chipset := flag.String("chipset", "sx1302",
		"concentrator front-end profile: "+chipsetNames())
	impair := flag.String("impair", "",
		"backhaul impairment spec, e.g. drop=0.1,dup=0.05,reorder=0.1,delay=20ms")
	impairSeed := flag.Int64("impair-seed", 1, "impairment RNG seed")
	flag.Parse()

	imp, err := udpfwd.ParseImpairment(*impair)
	if err != nil {
		log.Fatal(err)
	}

	fe, ok := radio.FrontEndByName(*chipset)
	if !ok {
		log.Fatalf("unknown -chipset %q (want one of: %s)", *chipset, chipsetNames())
	}

	env := phy.Urban(*seed)
	env.ShadowSigma = 0
	sim := des.New(*seed)
	med := medium.New(sim, env)

	// Gateways: each with a UDP forwarder toward the server, all on the
	// channel plan the profile's radios and IF chains give.
	cfg, err := fe.Config(lora.SyncPublic)
	if err != nil {
		log.Fatal(err)
	}
	var dl downlinkStats
	for i := 0; i < *gateways; i++ {
		gw, err := gateway.New(sim, med, i, fe.Model(), phy.Pt(float64(i)*10, 0), phy.Antenna{}, cfg)
		if err != nil {
			log.Fatalf("gateway %d: %v", i, err)
		}
		fwd, err := udpfwd.NewForwarder(udpfwd.EUI(i), *server, 5*time.Second)
		if err != nil {
			log.Fatalf("forwarder %d: %v", i, err)
		}
		defer fwd.Close()
		// Each gateway's backhaul gets its own RNG stream so the fleet's
		// impairments are independent but reproducible run to run.
		if err := fwd.SetImpairment(imp, *impairSeed+int64(i)); err != nil {
			log.Fatalf("forwarder %d: %v", i, err)
		}
		// Drain and validate Class A downlinks. The forwarder's read loop
		// blocks once its downlink buffer fills, so an unconsumed channel
		// would eventually stall PUSH_ACK processing.
		go func(id int) {
			for tx := range fwd.Downlinks() {
				hz := region.Hz(tx.Freq*1e6 + 0.5)
				dr, err := udpfwd.ParseDatr(tx.Datr)
				if err != nil {
					dl.rejected.Add(1)
					log.Printf("gateway %d: downlink bad datr %q", id, tx.Datr)
					continue
				}
				switch fe.ClassifyDownlink(hz, dr) {
				case radio.WindowRX1:
					dl.rx1.Add(1)
				case radio.WindowRX2:
					dl.rx2.Add(1)
				default:
					dl.rejected.Add(1)
					log.Printf("gateway %d: downlink %v %s matches no receive window",
						id, hz, tx.Datr)
				}
			}
		}(i)
		gwUplinks(sim, gw, fwd, fe)
	}

	// Devices: node ids start at 1 so the derived DevAddrs and session
	// keys line up with alphawan-server's deterministic provisioning.
	// Devices transmit on the channels the fleet's front end monitors.
	channels := fe.Channels()
	var nodes []*node.Node
	for i := 0; i < *devices; i++ {
		nd := node.New(medium.NodeID(i+1), 1, lora.SyncPublic, phy.Pt(100+float64(i)*7, 50))
		nd.Channels = channels
		nd.DR = lora.DR(i % 6)
		nodes = append(nodes, nd)
		traffic.StartPoisson(med, nd, 0, des.FromDuration(*duration), 5*des.Second)
	}

	log.Printf("alphawan-gwsim: %d gateways (%s) → %s, %d devices, %v simulated",
		*gateways, *chipset, *server, *devices, *duration)
	sim.RunUntil(des.FromDuration(*duration) + des.Minute)
	log.Printf("alphawan-gwsim: done")
	// Give in-flight UDP pushes and downlinks a moment to drain.
	time.Sleep(500 * time.Millisecond)
	if n := dl.rx1.Load() + dl.rx2.Load() + dl.rejected.Load(); n > 0 {
		log.Printf("alphawan-gwsim: downlinks rx1=%d rx2=%d rejected=%d",
			dl.rx1.Load(), dl.rx2.Load(), dl.rejected.Load())
	}
}

// gwUplinks wires a gateway's decoded uplinks to its forwarder the way
// the HAL fetch does: decodes accumulate in a pending buffer that a
// simulated poll flushes every 10 ms, at most fe.MaxRxPkt rxpks per
// datagram — bounding how many concurrently demodulated packets one
// fetch (and one datagram) can carry.
func gwUplinks(sim *des.Sim, gw *gateway.Gateway, fwd *udpfwd.Forwarder, fe radio.FrontEnd) {
	toRXPK := func(u gateway.Uplink) udpfwd.RXPK {
		return udpfwd.RXPK{
			Tmst: uint32(u.At), Freq: float64(u.TX.Channel.Center) / 1e6,
			Chan: u.Meta.Chain, Stat: 1, Modu: "LORA",
			Datr: udpfwd.DatrString(u.TX.DR), CodR: "4/5",
			RSSI: int(u.Meta.RSSIdBm), LSNR: u.Meta.SNRdB,
			Size: len(u.TX.Raw), Data: udpfwd.EncodeData(u.TX.Raw),
		}
	}
	var pending []udpfwd.RXPK
	gw.Uplinks.Subscribe(func(u gateway.Uplink) {
		pending = append(pending, toRXPK(u))
	})
	var poll func()
	poll = func() {
		for i := 0; i < len(pending); i += fe.MaxRxPkt {
			end := min(i+fe.MaxRxPkt, len(pending))
			if err := fwd.Push(pending[i:end:end], nil); err != nil {
				log.Printf("gateway %d: push failed: %v", gw.ID, err)
			}
		}
		pending = pending[:0]
		sim.At(sim.Now()+pollInterval, poll)
	}
	sim.At(pollInterval, poll)
}
