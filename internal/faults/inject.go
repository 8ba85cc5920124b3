package faults

import (
	"fmt"
	"math/rand"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/events"
	"github.com/alphawan/alphawan/internal/gateway"
	"github.com/alphawan/alphawan/internal/netserver"
	"github.com/alphawan/alphawan/internal/sim"
)

// streamID derives the injector's RNG stream from the simulation seed,
// far from the node-indexed streams (node i uses stream i), so attaching
// a plan never perturbs traffic draws.
const streamID = int64(0x0FA17_0001)

// FaultEvent reports an episode transition on the event bus: Active is
// true at window start and false at window end. The trace sink and run
// summaries subscribe to attribute outcomes to the faults active when
// they happened.
type FaultEvent struct {
	Episode *Episode
	Active  bool
	At      des.Time
}

// Stats counts the injector's interventions over a run.
type Stats struct {
	BackhaulDropped    int
	BackhaulDuplicated int
	BackhaulReordered  int
	BackhaulDelayed    int
	CommandsDropped    int
	CommandsDelayed    int
}

// Injector applies a fault plan to a composed scenario. All of its
// scheduling runs through the network's DES clock and all of its
// randomness through one dedicated seeded stream, so same seed + same
// plan reproduces the identical fault sequence bit for bit.
type Injector struct {
	// Events publishes every episode begin/end transition.
	Events events.Topic[FaultEvent]

	net  *sim.Network
	plan *Plan
	rng  *rand.Rand

	gwByID map[int]*gateway.Gateway

	// active holds the episodes inside their windows, in episode-ID order
	// so the "first matching episode wins" rule is deterministic under
	// overlap. The radios' decoder caps and the accessors below read it.
	active []*Episode
	// windows are the episode windows as observed on the DES clock, in
	// opening order; the invariant checker's recovery check reads them.
	windows []window
	// epoch counts outage and degrade transitions, the only kinds that
	// change what a channel plan can express.
	epoch uint64

	// wrappers are the installed per-operator backhaul wrappers, in
	// operator order, so episode teardown can flush withheld datagrams.
	wrappers []*opBackhaul

	stats Stats
}

// window is one episode's window as the injector opened and closed it.
type window struct {
	ep          *Episode
	open, close des.Time
	closed      bool
}

// Attach wires a fault plan into a composed scenario. It must be called
// before the run starts (or at least before the first episode window).
// An empty plan attaches nothing at all: no DES events, no wrapped
// delivery seams, no RNG stream — the run stays byte-identical to one
// without a plan, which the chaos determinism tests pin down.
func Attach(n *sim.Network, p *Plan) (*Injector, error) {
	inj := &Injector{net: n, plan: p}
	if p.Empty() {
		return inj, nil
	}
	inj.gwByID = make(map[int]*gateway.Gateway)
	for _, op := range n.Operators {
		for _, gw := range op.Gateways {
			inj.gwByID[gw.ID] = gw
		}
	}
	needBackhaul, needDownlink := false, false
	for i := range p.Episodes {
		ep := &p.Episodes[i]
		if ep.Gateway != nil && ep.Kind != KindDownlink {
			if _, ok := inj.gwByID[*ep.Gateway]; !ok {
				return nil, fmt.Errorf("faults: %s targets unknown gateway %d", ep, *ep.Gateway)
			}
		}
		switch ep.Kind {
		case KindBackhaul:
			needBackhaul = true
		case KindDownlink:
			needDownlink = true
		}
	}
	inj.rng = n.Sim.NewStream(streamID)
	if needBackhaul {
		for _, op := range n.Operators {
			w := &opBackhaul{inj: inj, next: op.Backhaul()}
			inj.wrappers = append(inj.wrappers, w)
			op.SetBackhaul(w.deliver)
		}
	}
	if needDownlink {
		for _, op := range n.Operators {
			next := op.CommandDelivery()
			op.SetCommandDelivery(func(c netserver.Command) { inj.deliverCommand(next, c) })
		}
	}
	for i := range p.Episodes {
		ep := &p.Episodes[i]
		n.Sim.AtOrNow(ep.Start(), func() { inj.begin(ep) })
		n.Sim.AtOrNow(ep.End(), func() { inj.end(ep) })
	}
	return inj, nil
}

// Plan returns the attached plan.
func (inj *Injector) Plan() *Plan { return inj.plan }

// Stats returns a snapshot of the injector's intervention counters.
func (inj *Injector) Stats() Stats { return inj.stats }

// Active returns the episodes currently inside their windows, in
// episode-ID order.
func (inj *Injector) Active() []*Episode {
	return append([]*Episode(nil), inj.active...)
}

// Epoch counts the outage and degrade transitions so far. A replanning
// controller re-solves only when it moved since its last look; backhaul
// and downlink episodes leave it alone, and an empty plan keeps it at 0.
func (inj *Injector) Epoch() uint64 { return inj.epoch }

// GatewayDown reports whether an active outage episode targets the
// gateway.
func (inj *Injector) GatewayDown(gwID int) bool {
	return inj.activeOn(KindGatewayOutage, gwID) != nil
}

// DecoderCap returns the tightest decoder cap the active degrade episodes
// put on the gateway, or 0 when none targets it.
func (inj *Injector) DecoderCap(gwID int) int {
	limit := 0
	for _, ep := range inj.active {
		if ep.Kind == KindDecoderDegrade && ep.Targets(gwID) && (limit == 0 || ep.Decoders < limit) {
			limit = ep.Decoders
		}
	}
	return limit
}

// activeOn returns the lowest-ID active episode of the kind that targets
// the gateway, or nil.
func (inj *Injector) activeOn(k Kind, gwID int) *Episode {
	for _, ep := range inj.active {
		if ep.Kind == k && ep.Targets(gwID) {
			return ep
		}
	}
	return nil
}

func sortEpisodes(eps []*Episode) {
	for i := 1; i < len(eps); i++ {
		for j := i; j > 0 && eps[j-1].ID > eps[j].ID; j-- {
			eps[j-1], eps[j] = eps[j], eps[j-1]
		}
	}
}

// targetGateways returns the gateways an episode applies to, in gateway
// id order.
func (inj *Injector) targetGateways(ep *Episode) []*gateway.Gateway {
	var out []*gateway.Gateway
	for _, op := range inj.net.Operators {
		for _, gw := range op.Gateways {
			if ep.Targets(gw.ID) {
				out = append(out, gw)
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].ID > out[j].ID; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func (inj *Injector) begin(ep *Episode) {
	now := inj.net.Sim.Now()
	inj.Events.Publish(FaultEvent{Episode: ep, Active: true, At: now})
	inj.active = append(inj.active, ep)
	sortEpisodes(inj.active)
	inj.windows = append(inj.windows, window{ep: ep, open: now})
	switch ep.Kind {
	case KindGatewayOutage:
		inj.epoch++
		for _, gw := range inj.targetGateways(ep) {
			gw.SetFaultOutage(true, ep.ID)
		}
	case KindDecoderDegrade:
		inj.epoch++
		inj.applyDecoderLimits()
	}
}

func (inj *Injector) end(ep *Episode) {
	now := inj.net.Sim.Now()
	for i, e := range inj.active {
		if e == ep {
			inj.active = append(inj.active[:i], inj.active[i+1:]...)
			break
		}
	}
	for i := range inj.windows {
		if w := &inj.windows[i]; w.ep == ep {
			w.close, w.closed = now, true
		}
	}
	switch ep.Kind {
	case KindGatewayOutage:
		inj.epoch++
		for _, gw := range inj.targetGateways(ep) {
			gw.SetFaultOutage(false, 0)
		}
	case KindDecoderDegrade:
		inj.epoch++
		inj.applyDecoderLimits()
	case KindBackhaul:
		inj.flushHeld()
	}
	inj.Events.Publish(FaultEvent{Episode: ep, Active: false, At: now})
}

// applyDecoderLimits installs every gateway's DecoderCap on its radio;
// with no degrade episode active, the cap is lifted. In-flight decodes
// always drain — the radio only enforces the limit on new lock-ons.
func (inj *Injector) applyDecoderLimits() {
	for _, op := range inj.net.Operators {
		for _, gw := range op.Gateways {
			gw.Radio().SetDecoderLimit(inj.DecoderCap(gw.ID))
		}
	}
}

// delay draws the episode's latency: DelayMS plus uniform [0, JitterMS).
func (inj *Injector) delay(ep *Episode) des.Time {
	ms := ep.DelayMS
	if ep.JitterMS > 0 {
		ms += inj.rng.Float64() * ep.JitterMS
	}
	return des.Time(ms * float64(des.Millisecond))
}

// heldUplink is a backhaul datagram withheld for reordering: it is
// released after the next datagram on the same operator link, arriving
// out of order, or flushed when the episode ends.
type heldUplink struct {
	gw   *gateway.Gateway
	raw  []byte
	meta netserver.UplinkMeta
}

// opBackhaul is the per-operator backhaul wrapper installed by Attach.
type opBackhaul struct {
	inj  *Injector
	next sim.Backhaul
	held *heldUplink
}

// deliver is the wrapped Backhaul: under an active episode it flips the
// seeded coins in a fixed order (drop, reorder, duplicate, jitter) so
// the draw sequence — and with it the whole run — is reproducible.
func (w *opBackhaul) deliver(gw *gateway.Gateway, raw []byte, meta netserver.UplinkMeta) {
	ep := w.inj.activeOn(KindBackhaul, gw.ID)
	if ep == nil {
		w.next(gw, raw, meta)
		return
	}
	if ep.Drop > 0 && w.inj.rng.Float64() < ep.Drop {
		w.inj.stats.BackhaulDropped++
		return
	}
	if h := w.held; h != nil {
		// Release the withheld datagram after this one: the pair arrives
		// swapped.
		w.held = nil
		w.inj.stats.BackhaulReordered++
		w.forward(ep, gw, raw, meta)
		w.next(h.gw, h.raw, h.meta)
		return
	}
	if ep.Reorder > 0 && w.inj.rng.Float64() < ep.Reorder {
		// tx.Raw buffers are per-transmission, but copy anyway: a held
		// datagram outlives its synchronous dispatch window.
		w.held = &heldUplink{gw: gw, raw: cloneBytes(raw), meta: meta}
		return
	}
	w.forward(ep, gw, raw, meta)
}

// forward delivers one datagram, applying the episode's duplication and
// latency. Delayed copies keep the original receive metadata — the
// gateway timestamped the packet on air; only the backhaul is late.
func (w *opBackhaul) forward(ep *Episode, gw *gateway.Gateway, raw []byte, meta netserver.UplinkMeta) {
	dup := ep.Duplicate > 0 && w.inj.rng.Float64() < ep.Duplicate
	d := w.inj.delay(ep)
	if d > 0 {
		w.inj.stats.BackhaulDelayed++
		c := cloneBytes(raw)
		w.inj.net.Sim.After(d, func() { w.next(gw, c, meta) })
	} else {
		w.next(gw, raw, meta)
	}
	if dup {
		w.inj.stats.BackhaulDuplicated++
		c := cloneBytes(raw)
		// The duplicate trails the original by its own (jittered) lag, as
		// a retransmitting packet forwarder would produce.
		lag := d + des.Millisecond + w.inj.delay(ep)
		w.inj.net.Sim.After(lag, func() { w.next(gw, c, meta) })
	}
}

// flushHeld releases every withheld datagram whose gateway has no active
// backhaul episode left, so reordering never turns into silent loss when
// an episode window closes.
func (inj *Injector) flushHeld() {
	for _, w := range inj.wrappers {
		if h := w.held; h != nil && inj.activeOn(KindBackhaul, h.gw.ID) == nil {
			w.held = nil
			w.next(h.gw, h.raw, h.meta)
		}
	}
}

// deliverCommand is the wrapped CommandDelivery: active downlink
// episodes fail a command batch outright or apply it late.
func (inj *Injector) deliverCommand(next sim.CommandDelivery, c netserver.Command) {
	var ep *Episode
	for _, e := range inj.active {
		if e.Kind == KindDownlink {
			ep = e
			break
		}
	}
	if ep == nil {
		next(c)
		return
	}
	if ep.Fail > 0 && inj.rng.Float64() < ep.Fail {
		inj.stats.CommandsDropped++
		return
	}
	if d := inj.delay(ep); d > 0 {
		inj.stats.CommandsDelayed++
		inj.net.Sim.After(d, func() { next(c) })
		return
	}
	next(c)
}

func cloneBytes(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}
