// Package metrics aggregates simulation outcomes into the quantities the
// paper reports: packet reception ratios, network throughput, concurrent
// user capacity, and the packet-loss cause breakdown (decoder contention
// vs channel contention vs others, split intra-/inter-network) behind
// Figures 4 and 13c.
//
// A transmission is "received" when at least one own-network gateway
// delivered it (LoRaWAN gateway redundancy; the network server
// deduplicates). A lost transmission is attributed to exactly one cause
// with the precedence decoder > channel > others: if any in-range gateway
// turned the packet away for lack of decoders, more decoders would have
// saved it there.
package metrics

import (
	"fmt"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/events"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/radio"
)

// Cause classifies why a transmission was lost network-wide.
type Cause int

// Loss causes, matching the paper's Figure 4 legend.
const (
	DecoderContentionIntra Cause = iota
	DecoderContentionInter
	ChannelContentionIntra
	ChannelContentionInter
	Others
	numCauses
)

func (c Cause) String() string {
	switch c {
	case DecoderContentionIntra:
		return "decoder-contention(intra)"
	case DecoderContentionInter:
		return "decoder-contention(inter)"
	case ChannelContentionIntra:
		return "channel-contention(intra)"
	case ChannelContentionInter:
		return "channel-contention(inter)"
	case Others:
		return "others"
	}
	return fmt.Sprintf("Cause(%d)", int(c))
}

// NetworkStats aggregates one network's outcomes.
type NetworkStats struct {
	Sent     int
	Received int
	// Losses counts lost transmissions by cause.
	Losses [numCauses]int
	// PayloadBytes sums delivered application payload sizes.
	PayloadBytes int
	// ByDR counts received packets per data rate (Figure 13d's
	// spectrum-utilization view and Figure 6's DR histograms).
	ByDR [lora.NumDRs]int
	// GatewayCopies counts total gateway deliveries including duplicates
	// (a packet heard by 3 gateways adds 3) — the redundancy measure of
	// Figure 6's "gateways per user".
	GatewayCopies int
}

// PRR returns the packet reception ratio.
func (s NetworkStats) PRR() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Received) / float64(s.Sent)
}

// LossRatio returns the fraction of transmissions lost to the cause.
func (s NetworkStats) LossRatio(c Cause) float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Losses[c]) / float64(s.Sent)
}

// DecoderContentionRatio sums both decoder-contention causes.
func (s NetworkStats) DecoderContentionRatio() float64 {
	return s.LossRatio(DecoderContentionIntra) + s.LossRatio(DecoderContentionInter)
}

// ChannelContentionRatio sums both channel-contention causes.
func (s NetworkStats) ChannelContentionRatio() float64 {
	return s.LossRatio(ChannelContentionIntra) + s.LossRatio(ChannelContentionInter)
}

// Tally is a per-network outcome tally, dense by NetworkID (operator ids
// are small sequential integers everywhere in this codebase). Both
// engines' results embed it, so the readers below are the one way to
// read a run's statistics.
type Tally struct {
	perNet []NetworkStats
	seen   []bool
}

// NewTally wraps statistics accumulated elsewhere: perNet[id] is network
// id's, counted when seen[id].
func NewTally(perNet []NetworkStats, seen []bool) Tally {
	return Tally{perNet: perNet, seen: seen}
}

// Network returns the statistics for one network (zero value if unseen).
func (t *Tally) Network(id medium.NetworkID) NetworkStats {
	if id < 0 || int(id) >= len(t.perNet) || !t.seen[id] {
		return NetworkStats{}
	}
	return t.perNet[id]
}

// Networks returns the ids of all networks seen, ascending.
func (t *Tally) Networks() []medium.NetworkID {
	var ids []medium.NetworkID
	for id, ok := range t.seen {
		if ok {
			ids = append(ids, medium.NetworkID(id))
		}
	}
	return ids
}

// Total returns statistics aggregated across all networks.
func (t *Tally) Total() NetworkStats {
	var tot NetworkStats
	for id, ok := range t.seen {
		if !ok {
			continue
		}
		s := &t.perNet[id]
		tot.Sent += s.Sent
		tot.Received += s.Received
		tot.PayloadBytes += s.PayloadBytes
		tot.GatewayCopies += s.GatewayCopies
		for i := range s.Losses {
			tot.Losses[i] += s.Losses[i]
		}
		for i := range s.ByDR {
			tot.ByDR[i] += s.ByDR[i]
		}
	}
	return tot
}

// txRecord tracks one transmission's per-gateway outcomes until it leaves
// the air.
type txRecord struct {
	network   medium.NetworkID
	dr        lora.DR
	payload   int
	delivered int
	// worst drop seen so far under the cause precedence.
	dropSeen bool
	cause    Cause
}

// Outcome is the network-wide final fate of one transmission: received by
// at least one own-network gateway, or lost to exactly one Cause.
type Outcome struct {
	TX       *medium.Transmission
	Received bool
	// Cause is the attributed loss cause; meaningful only when !Received.
	Cause Cause
}

// Collector subscribes to a medium and aggregates per-network statistics.
// It is an ordinary event-bus subscriber: constructing it does not claim
// any exclusive hook, and any number of other subscribers can observe the
// same medium.
//
// Its steady-state footprint is O(seen networks + in-flight packets):
// per-network stats live in the embedded Tally's dense slices, and
// finished txRecords recycle through a freelist instead of churning the
// allocator — after warm-up a run of any length allocates nothing here
// on the per-packet path.
type Collector struct {
	Tally
	pending map[int64]*txRecord
	free    []*txRecord

	// Outcomes publishes each transmission's network-wide final outcome
	// once it leaves the air. Experiments use it for live capacity probes;
	// the trace sink uses it for authoritative loss-cause records.
	Outcomes events.Topic[Outcome]
}

// NewCollector creates a collector and subscribes it to the medium's
// delivery, drop, and air-done topics.
func NewCollector(med *medium.Medium) *Collector {
	c := &Collector{
		pending: make(map[int64]*txRecord),
	}
	med.Deliveries.Subscribe(c.delivery)
	med.Drops.Subscribe(c.drop)
	med.AirDone.Subscribe(c.airDone)
	return c
}

func (c *Collector) net(id medium.NetworkID) *NetworkStats {
	if id < 0 {
		panic("metrics: negative network id")
	}
	for int(id) >= len(c.perNet) {
		c.perNet = append(c.perNet, NetworkStats{})
		c.seen = append(c.seen, false)
	}
	c.seen[id] = true
	return &c.perNet[id]
}

func (c *Collector) rec(t *medium.Transmission) *txRecord {
	r, ok := c.pending[t.ID]
	if !ok {
		if n := len(c.free); n > 0 {
			r = c.free[n-1]
			c.free = c.free[:n-1]
		} else {
			r = new(txRecord)
		}
		*r = txRecord{network: t.Network, dr: t.DR, payload: t.PayloadLen}
		c.pending[t.ID] = r
	}
	return r
}

func (c *Collector) delivery(d medium.Delivery) {
	c.rec(d.TX).delivered++
}

// causeOf maps a port-level drop to a network-wide cause candidate.
func causeOf(d medium.Drop) Cause {
	switch d.Reason {
	case radio.DropNoDecoder:
		if d.InterNetwork {
			return DecoderContentionInter
		}
		return DecoderContentionIntra
	case radio.DropChannelContention:
		if d.InterNetwork {
			return ChannelContentionInter
		}
		return ChannelContentionIntra
	case radio.DropGatewayDown:
		// Reboot downtime is neither contention class; it lands in Others
		// alongside link-budget losses, matching the paper's loss
		// taxonomy (Figure 4 groups everything non-contention).
		return Others
	default:
		return Others
	}
}

// Precedence orders the loss causes for attribution: when different
// gateways dropped the same packet for different reasons, the cause
// earliest here is the packet's.
var Precedence = [numCauses]Cause{
	DecoderContentionInter,
	DecoderContentionIntra,
	ChannelContentionInter,
	ChannelContentionIntra,
	Others,
}

// rank inverts Precedence: a lower value wins.
var rank = func() (r [numCauses]int) {
	for i, c := range Precedence {
		r[c] = i
	}
	return r
}()

func precedence(c Cause) int { return rank[c] }

func (c *Collector) drop(d medium.Drop) {
	if d.Reason == radio.DropForeignNetwork {
		// A foreign gateway filtered the packet; irrelevant to the
		// sender's own-network outcome.
		return
	}
	r := c.rec(d.TX)
	cause := causeOf(d)
	if !r.dropSeen || precedence(cause) < precedence(r.cause) {
		r.dropSeen = true
		r.cause = cause
	}
}

func (c *Collector) airDone(t *medium.Transmission) {
	var r txRecord
	if p, ok := c.pending[t.ID]; ok {
		r = *p
		delete(c.pending, t.ID)
		c.free = append(c.free, p)
	} else {
		// Nobody heard the packet at all: count as a weak-signal loss.
		r = txRecord{network: t.Network, dr: t.DR, payload: t.PayloadLen, dropSeen: true, cause: Others}
	}
	s := c.net(r.network)
	s.Sent++
	if r.delivered > 0 {
		s.Received++
		s.GatewayCopies += r.delivered
		s.PayloadBytes += r.payload
		s.ByDR[r.dr]++
		c.Outcomes.Publish(Outcome{TX: t, Received: true})
		return
	}
	if !r.dropSeen {
		r.cause = Others
	}
	s.Losses[r.cause]++
	c.Outcomes.Publish(Outcome{TX: t, Cause: r.cause})
}

// Reset clears accumulated statistics, keeping capacity (pending
// transmissions are kept so in-flight packets finalize correctly).
func (c *Collector) Reset() {
	for i := range c.perNet {
		c.perNet[i] = NetworkStats{}
		c.seen[i] = false
	}
}

// ThroughputBps returns delivered application payload throughput over a
// window (Figure 13a).
func ThroughputBps(s NetworkStats, window des.Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(s.PayloadBytes) * 8 / (float64(window) / 1e6)
}
