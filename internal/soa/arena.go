package soa

import (
	"fmt"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/node"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/region"
)

// Arena holds every device's hot-path state as dense parallel slices —
// the struct-of-arrays layout that replaces one heap-allocated node.Node
// per device. A device is an index; all slices share that index. The
// fields sum to 75 bytes per device (≈87 resident with append slack — the
// benchmark's soa.bytes_per_device), so a million-device city fits in
// under a hundred megabytes of flat, GC-invisible arrays.
//
// node.Node stays the reference implementation for the join/crypto flows
// the arena deliberately omits: an OTAA population joins through real
// Node objects and is then frozen into the arena with FromNodes.
type Arena struct {
	// X, Y are device positions in meters.
	X, Y []float64
	// DR and Power are the ADR-managed transmission settings.
	DR    []uint8
	Power []float64
	// Net and Sync identify the operator network and its sync word.
	Net  []uint8
	Sync []uint8
	// ChSet is the device's interned channel-set id (see Core.internSet).
	ChSet []int32
	// ChHop and FCnt mirror node.Node's channel-hop cursor and uplink
	// frame counter.
	ChHop []uint32
	FCnt  []uint32
	// NextAllowed is the duty-cycle regulator state: earliest time the
	// device may transmit again.
	NextAllowed []des.Time
	// Anchor is the device's slot-grid clock reference — the instant of
	// its last observed downlink (node.Node.Anchor). Only read when
	// Config.Slots is installed; zero means "never synchronized".
	Anchor []des.Time
	// nextTick is the device's next Poisson arrival (traffic state).
	nextTick []des.Time
	// rng is the device's compact traffic generator state: a splitmix64
	// word seeded exactly like a des.Sim stream for (device id, network),
	// so arena traffic and PoissonUser traffic draw from identically
	// derived streams.
	rng []uint64
	// cell is the grid cell owning the device (assigned at Seal).
	cell []int32
}

// Len returns the number of devices in the arena.
func (a *Arena) Len() int { return len(a.X) }

// splitmix64 advances a compact RNG state and returns the next word.
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// AddDevice appends one device to the core's arena and returns its index.
// Must be called before Seal.
func (c *Core) AddDevice(pos phy.Point, net medium.NetworkID, sync lora.SyncWord, channels []region.Channel, dr lora.DR, powerDBm float64) int {
	if c.sealed {
		panic("soa: AddDevice after Seal")
	}
	if net < 0 || net > 255 {
		panic(fmt.Sprintf("soa: network id %d out of the arena's uint8 range", net))
	}
	if len(channels) == 0 {
		panic("soa: device with no channels")
	}
	a := &c.devs
	d := a.Len()
	a.X = append(a.X, pos.X)
	a.Y = append(a.Y, pos.Y)
	a.DR = append(a.DR, uint8(dr))
	a.Power = append(a.Power, powerDBm)
	a.Net = append(a.Net, uint8(net))
	a.Sync = append(a.Sync, uint8(sync))
	a.ChSet = append(a.ChSet, c.internSet(channels))
	a.ChHop = append(a.ChHop, 0)
	a.FCnt = append(a.FCnt, 0)
	a.NextAllowed = append(a.NextAllowed, 0)
	a.Anchor = append(a.Anchor, 0)
	a.nextTick = append(a.nextTick, 0)
	a.rng = append(a.rng, uint64(des.StreamSeed(c.cfg.Seed, int64(d)+int64(net)<<32)))
	a.cell = append(a.cell, 0)
	if powerDBm > c.maxPower {
		c.maxPower = powerDBm
	}
	return d
}

// FromNodes freezes a population of reference node.Node devices into the
// arena: position, network, sync word, channel set, DR, TX power, and
// frame counter are copied; traffic and duty-cycle state start fresh.
// The nodes must be factory-fresh or just-(re)joined — i.e. their channel
// hop cursor at zero, which New, HandleLinkADR, and HandleJoinAccept all
// guarantee — since the cursor is not observable from outside the node.
// OTAA nodes must have completed their join (Joined() true) so the
// CFList-installed channel plan is what the arena captures.
func (c *Core) FromNodes(nodes []*node.Node) []int {
	idx := make([]int, len(nodes))
	for i, n := range nodes {
		if !n.Joined() {
			panic(fmt.Sprintf("soa: node %d frozen before completing its OTAA join", n.ID))
		}
		d := c.AddDevice(n.Pos, n.Network, n.Sync, n.Channels, n.DR, n.PowerDBm)
		c.devs.FCnt[d] = n.FCnt()
		c.devs.Anchor[d] = n.Anchor()
		idx[i] = d
	}
	return idx
}

// internChannel returns the dense id of a channel, interning it on first
// sight. Channel structs are comparable, so identical channels share one
// id — and one row of the overlap tables built at Seal.
func (c *Core) internChannel(ch region.Channel) int32 {
	if id, ok := c.chanKey[ch]; ok {
		return id
	}
	id := int32(len(c.chanTab))
	c.chanTab = append(c.chanTab, ch)
	c.chanKey[ch] = id
	return id
}

// internSet returns the dense id of a channel set. Devices assigned the
// same plan (the common case: every device of an operator's cell shares
// the gateway's plan) share one backing slice.
func (c *Core) internSet(channels []region.Channel) int32 {
	ids := make([]int32, len(channels))
	key := make([]byte, 0, 4*len(channels))
	for i, ch := range channels {
		ids[i] = c.internChannel(ch)
		id := ids[i]
		key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	if sid, ok := c.setKey[string(key)]; ok {
		return sid
	}
	sid := int32(len(c.setTab))
	c.setTab = append(c.setTab, ids)
	c.setKey[string(key)] = sid
	return sid
}
