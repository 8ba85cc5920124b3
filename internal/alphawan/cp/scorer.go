package cp

import (
	"math"
	"math/bits"

	"github.com/alphawan/alphawan/internal/lora"
)

// Gene identifies one decision variable of an Assignment for the
// incremental Scorer: either a node's (channel, ring) pair or a
// gateway's channel set. Node genes are the node index; gateway genes
// are the bitwise complement of the gateway index, so the two ranges
// never collide and a Gene packs into one machine word.
type Gene int32

// NodeGene returns the gene for node i's (channel, ring) setting.
func NodeGene(i int) Gene { return Gene(i) }

// GWGene returns the gene for gateway j's channel set.
func GWGene(j int) Gene { return Gene(^j) }

// IsNode reports whether the gene is a node gene; Index returns the node
// or gateway index it names.
func (g Gene) IsNode() bool { return g >= 0 }

// Index returns the node index (node genes) or gateway index (gateway
// genes) the gene addresses.
func (g Gene) Index() int {
	if g >= 0 {
		return int(g)
	}
	return int(^g)
}

// Scorer carries the per-assignment evaluation state of one candidate —
// operated bitmasks, gateway loads and risks, per-node risk
// contributions, the dense (channel, DR) pair grid with its spill map,
// and the membership bitsets that tie them together — so that after a
// handful of gene changes only the affected pieces are recomputed.
//
// The one rule that makes this exact rather than approximate: a dirty
// float is never adjusted by ±delta. Gateway loads and pair-grid cells
// are re-accumulated from their membership bitsets in ascending node
// order — the same canonical order Evaluate uses — and the DecoderRisk
// and ChannelOverload sums are re-folded linearly whenever an element of
// theirs changed bitwise. Floating-point addition is not associative, so
// only identical add chains yield identical bits; re-summation in
// canonical order reproduces Evaluate's chain exactly, which the
// byte-identity of the experiment suite (and TestScorerDifferential)
// depends on.
//
// A Scorer is single-goroutine state; distinct Scorers over one Problem
// may be used concurrently (the shared reachability index is read-only).
type Scorer struct {
	p *Problem
	r *reachIndex

	// a is the Scorer's private snapshot of the assignment being scored.
	a Assignment

	// Per-gateway state.
	operated []uint64 // channel bitmask, 0 when constraint-violating
	spanBad  []bool   // gateway counted in SpanViolations
	loads    []float64
	risks    []float64
	// gwBits[j*words : (j+1)*words] is the membership bitset of gateway
	// j's load: nodes currently linked to j.
	gwBits []uint64

	// Per-node state.
	phi []float64 // Φ_i, +Inf when unconnected
	// contrib is Φ_i · u_i, 0 when unconnected: adding +0 leaves the
	// DecoderRisk fold bit-identical to Evaluate's, which skips the node.
	contrib []float64
	unconn  []bool

	// Pair-grid state.
	cellLoad []float64
	// cellBits[key*words : (key+1)*words] is the membership bitset of
	// grid cell key.
	cellBits []uint64
	spill    map[int]float64
	// spillNodes counts nodes whose (channel, ring) key lies outside the
	// dense grid; the spill map is rebuilt by a full node scan whenever
	// it is, or stops being, populated.
	spillNodes int
	spillTouch bool

	cost  Cost
	words int
	nPair int

	// Dirt tracking between gene changes and the next flush.
	loadDirty   []bool
	dirtyGWs    []int32
	cellDirty   []bool
	dirtyCells  []int32
	phiDirty    []uint64  // nodes whose Φ needs a full rescan
	riskOld     []float64 // pre-flush risk of gateways in riskChanged
	riskChanged []int32
	gwTouched   bool // SpanViolations needs recounting
}

// NewScorer allocates a Scorer for the problem. The returned Scorer
// holds no assignment yet; call Reset before Cost.
func NewScorer(p *Problem) *Scorer {
	if len(p.Channels) > 64 {
		panic("cp: more than 64 channels not supported")
	}
	r := p.reachability()
	nGW := len(p.Gateways)
	nN := len(p.Nodes)
	nPair := len(p.Channels) * lora.NumDRs
	s := &Scorer{
		p:        p,
		r:        r,
		operated: make([]uint64, nGW),
		spanBad:  make([]bool, nGW),
		loads:    make([]float64, nGW),
		risks:    make([]float64, nGW),
		gwBits:   make([]uint64, nGW*r.words),
		phi:      make([]float64, nN),
		contrib:  make([]float64, nN),
		unconn:   make([]bool, nN),
		cellLoad: make([]float64, nPair),
		cellBits: make([]uint64, nPair*r.words),
		words:    r.words,
		nPair:    nPair,

		loadDirty:   make([]bool, nGW),
		dirtyGWs:    make([]int32, 0, nGW),
		cellDirty:   make([]bool, nPair),
		phiDirty:    make([]uint64, r.words),
		riskOld:     make([]float64, nGW),
		riskChanged: make([]int32, 0, nGW),
	}
	s.a.GWChannels = make([][]int, nGW)
	s.a.NodeChannel = make([]int, nN)
	s.a.NodeRing = make([]int, nN)
	return s
}

// Assignment returns the Scorer's current assignment snapshot. The
// caller must not mutate it; change state through SetNode /
// SetGWChannels instead.
func (s *Scorer) Assignment() *Assignment { return &s.a }

// Reset loads a fresh assignment as if every gene had changed: it rewrites
// the membership bitsets with the row and cell writers the setters use
// and marks every gateway, cell and node dirty. It computes no cost
// itself; the next Cost flush does, so a reset and a gene change are
// priced by the same arithmetic and the result is bit-identical to
// p.Evaluate(a). The flushed loads, risks, Φ and sums are left as they
// are, stale or zero: the flush recomputes every dirty element and
// re-folds a sum exactly when an element of it changed bitwise, which
// holds from any flushed state, a fresh Scorer's zeros included.
func (s *Scorer) Reset(a *Assignment) {
	copy(s.a.NodeChannel, a.NodeChannel)
	copy(s.a.NodeRing, a.NodeRing)
	for j := range s.a.GWChannels {
		s.a.GWChannels[j] = append(s.a.GWChannels[j][:0], a.GWChannels[j]...)
		s.operated[j], s.spanBad[j] = s.p.operatedMask(j, s.a.GWChannels[j])
		s.writeRow(j)
		s.markLoadDirty(j)
	}
	s.gwTouched = true

	clear(s.cellBits)
	s.spillNodes = 0
	s.spillTouch = true
	for i, ch := range s.a.NodeChannel {
		w, bit := i>>6, uint64(1)<<uint(i&63)
		s.enterCell(ch*lora.NumDRs+s.a.NodeRing[i], w, bit)
		s.phiDirty[w] |= bit
	}
	for key := range s.cellLoad {
		s.markCellDirty(key) // emptied cells too
	}
}

// SetNode changes node i's (channel, ring) setting and marks the
// affected gateways, cells, and Φ entries dirty.
func (s *Scorer) SetNode(i, ch, ring int) {
	oldCh, oldRing := s.a.NodeChannel[i], s.a.NodeRing[i]
	if ch == oldCh && ring == oldRing {
		return
	}
	s.a.NodeChannel[i] = ch
	s.a.NodeRing[i] = ring

	// Link membership flips against every gateway the node can reach.
	w, bit := i>>6, uint64(1)<<uint(i&63)
	for _, e := range s.r.nodeGWs[i] {
		j := int(e.idx)
		m := s.operated[j]
		oldL := int(e.maxDR) >= oldRing && m&(1<<uint(oldCh)) != 0
		newL := int(e.maxDR) >= ring && m&(1<<uint(ch)) != 0
		if oldL != newL {
			s.gwBits[j*s.words+w] ^= bit
			s.markLoadDirty(j)
		}
	}

	// Pair-grid membership.
	s.leaveCell(oldCh*lora.NumDRs+oldRing, w, bit)
	s.enterCell(ch*lora.NumDRs+ring, w, bit)
	s.phiDirty[w] |= bit
}

// leaveCell and enterCell move one node's pair-grid membership; w and
// bit address the node in a bitset row. A key outside the dense grid is
// only counted: the flush rebuilds the spill map by a node scan.
func (s *Scorer) leaveCell(key, w int, bit uint64) {
	if uint(key) < uint(s.nPair) {
		s.cellBits[key*s.words+w] &^= bit
		s.markCellDirty(key)
	} else {
		s.spillNodes--
		s.spillTouch = true
	}
}

func (s *Scorer) enterCell(key, w int, bit uint64) {
	if uint(key) < uint(s.nPair) {
		s.cellBits[key*s.words+w] |= bit
		s.markCellDirty(key)
	} else {
		s.spillNodes++
		s.spillTouch = true
	}
}

// SetGWChannels changes gateway j's channel set. The set is copied.
func (s *Scorer) SetGWChannels(j int, set []int) {
	dst := s.a.GWChannels[j]
	if len(dst) == len(set) {
		same := true
		for k, v := range set {
			if dst[k] != v {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	s.a.GWChannels[j] = append(dst[:0], set...)

	// Re-run the radio-constraint check for this gateway alone.
	oldMask := s.operated[j]
	mask, bad := s.p.operatedMask(j, s.a.GWChannels[j])
	s.operated[j] = mask
	if bad != s.spanBad[j] {
		s.spanBad[j] = bad
		s.gwTouched = true
	}
	if mask == oldMask {
		return
	}

	// The gateway's membership row changes wholesale: every old member's
	// Φ may lose this gateway, every new member's may gain it. Fold the
	// old row into phiDirty, rebuild it, fold the new row in too.
	row := s.gwBits[j*s.words : (j+1)*s.words]
	for w, word := range row {
		s.phiDirty[w] |= word
	}
	s.writeRow(j)
	for w, word := range row {
		s.phiDirty[w] |= word
	}
	s.markLoadDirty(j)
}

// writeRow rebuilds gateway j's membership row from its reachability
// list under the gateway's current operated mask.
func (s *Scorer) writeRow(j int) {
	row := s.gwBits[j*s.words : (j+1)*s.words]
	clear(row)
	mask := s.operated[j]
	for _, e := range s.r.gwNodes[j] {
		i := int(e.idx)
		if int(e.maxDR) >= s.a.NodeRing[i] && mask&(1<<uint(s.a.NodeChannel[i])) != 0 {
			row[i>>6] |= uint64(1) << uint(i&63)
		}
	}
}

func (s *Scorer) markLoadDirty(j int) {
	if !s.loadDirty[j] {
		s.loadDirty[j] = true
		s.dirtyGWs = append(s.dirtyGWs, int32(j))
	}
}

func (s *Scorer) markCellDirty(key int) {
	if !s.cellDirty[key] {
		s.cellDirty[key] = true
		s.dirtyCells = append(s.dirtyCells, int32(key))
	}
}

// Rescore applies assignment a's values for the changed genes and
// returns the flushed Cost. Genes not listed are assumed unchanged;
// listing an unchanged gene is a harmless no-op. The result is
// bit-identical to a fresh p.Evaluate(a).
func (s *Scorer) Rescore(a *Assignment, changed []Gene) Cost {
	for _, g := range changed {
		if g.IsNode() {
			i := g.Index()
			s.SetNode(i, a.NodeChannel[i], a.NodeRing[i])
		} else {
			j := g.Index()
			s.SetGWChannels(j, a.GWChannels[j])
		}
	}
	return s.Cost()
}

// Cost flushes all pending dirt and returns the cost of the current
// assignment, bit-identical to p.Evaluate(Assignment()).
func (s *Scorer) Cost() Cost {
	// Dirty gateway loads: re-accumulate from the membership bitset in
	// ascending node order (Evaluate's canonical chain), recording
	// bitwise risk transitions for the Φ passes below.
	for _, j32 := range s.dirtyGWs {
		j := int(j32)
		load := 0.0
		row := s.gwBits[j*s.words : (j+1)*s.words]
		for w, word := range row {
			base := w << 6
			for word != 0 {
				load += s.r.traffic[base+bits.TrailingZeros64(word)]
				word &= word - 1
			}
		}
		s.loads[j] = load
		newRisk := 0.0
		if over := load - float64(s.p.Gateways[j].Decoders); over > 0 {
			newRisk = over
		}
		if newRisk != s.risks[j] {
			s.riskOld[j] = s.risks[j]
			s.riskChanged = append(s.riskChanged, j32)
			s.risks[j] = newRisk
		}
		s.loadDirty[j] = false
	}
	s.dirtyGWs = s.dirtyGWs[:0]

	// Risk-change fan-out, exploiting that Φ_i is a min: a member whose
	// Φ sat strictly below a gateway's old risk cannot be holding that
	// risk as its min, so a risk *increase* there leaves Φ untouched; a
	// risk *decrease* folds in as min(Φ, newRisk), which is exact (min
	// never rounds) and bit-identical to a full rescan. Only members
	// whose Φ equaled the old risk of an increased gateway need the
	// rescan. Increases are classified first, against pre-merge Φ —
	// merging first would invalidate the Φ < oldRisk test.
	contribChanged := false
	for _, j32 := range s.riskChanged {
		j := int(j32)
		if s.risks[j] < s.riskOld[j] {
			continue
		}
		ro := s.riskOld[j]
		row := s.gwBits[j*s.words : (j+1)*s.words]
		for w, word := range row {
			base := w << 6
			for word != 0 {
				tz := bits.TrailingZeros64(word)
				word &= word - 1
				if s.phi[base+tz] >= ro {
					s.phiDirty[w] |= uint64(1) << uint(tz)
				}
			}
		}
	}
	for _, j32 := range s.riskChanged {
		j := int(j32)
		rn := s.risks[j]
		if rn >= s.riskOld[j] {
			continue
		}
		row := s.gwBits[j*s.words : (j+1)*s.words]
		for w, word := range row {
			base := w << 6
			for word != 0 {
				i := base + bits.TrailingZeros64(word)
				word &= word - 1
				if rn < s.phi[i] {
					s.phi[i] = rn
					s.contrib[i] = rn * s.r.traffic[i]
					contribChanged = true
				}
			}
		}
	}
	s.riskChanged = s.riskChanged[:0]

	// Remaining dirty Φ entries (changed nodes, re-operated gateways,
	// possible argmin losses): recompute exactly — min over linked risks
	// is order-free — then linearly re-fold DecoderRisk in ascending
	// node order if any contribution changed bitwise.
	for w := range s.phiDirty {
		word := s.phiDirty[w]
		if word == 0 {
			continue
		}
		s.phiDirty[w] = 0
		base := w << 6
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			ch, ring := s.a.NodeChannel[i], s.a.NodeRing[i]
			best := math.Inf(1)
			for _, e := range s.r.nodeGWs[i] {
				if int(e.maxDR) >= ring && s.operated[e.idx]&(1<<uint(ch)) != 0 && s.risks[e.idx] < best {
					best = s.risks[e.idx]
				}
			}
			newUn := math.IsInf(best, 1)
			var c float64
			if !newUn {
				c = best * s.r.traffic[i]
			}
			s.phi[i] = best
			if newUn != s.unconn[i] {
				if newUn {
					s.cost.Unconnected++
				} else {
					s.cost.Unconnected--
				}
				s.unconn[i] = newUn
			}
			if c != s.contrib[i] {
				s.contrib[i] = c
				contribChanged = true
			}
		}
	}
	if contribChanged {
		sum := 0.0
		for _, c := range s.contrib {
			sum += c
		}
		s.cost.DecoderRisk = sum
	}

	// Dirty pair-grid cells, same canonical-order rule; the spill map is
	// rebuilt wholesale by a node scan whenever it is in play.
	cellsChanged := false
	for _, key32 := range s.dirtyCells {
		key := int(key32)
		load := 0.0
		row := s.cellBits[key*s.words : (key+1)*s.words]
		for w, word := range row {
			base := w << 6
			for word != 0 {
				load += s.r.traffic[base+bits.TrailingZeros64(word)]
				word &= word - 1
			}
		}
		if load != s.cellLoad[key] {
			s.cellLoad[key] = load
			cellsChanged = true
		}
		s.cellDirty[key] = false
	}
	s.dirtyCells = s.dirtyCells[:0]
	if s.spillTouch {
		s.rebuildSpill()
		s.spillTouch = false
		cellsChanged = true
	}
	if cellsChanged {
		over := 0.0
		for _, m := range s.cellLoad {
			if m > 1 {
				over += m - 1
			}
		}
		for _, m := range s.spill {
			if m > 1 {
				over += m - 1
			}
		}
		s.cost.ChannelOverload = over
	}

	if s.gwTouched {
		n := 0
		for _, b := range s.spanBad {
			if b {
				n++
			}
		}
		s.cost.SpanViolations = n
		s.gwTouched = false
	}
	return s.cost
}

func (s *Scorer) rebuildSpill() {
	s.spill = nil
	if s.spillNodes <= 0 {
		s.spillNodes = 0
		return
	}
	s.spill = make(map[int]float64, s.spillNodes)
	for i := range s.p.Nodes {
		key := s.a.NodeChannel[i]*lora.NumDRs + s.a.NodeRing[i]
		if uint(key) >= uint(s.nPair) {
			s.spill[key] += s.r.traffic[i]
		}
	}
}
