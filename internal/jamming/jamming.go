// Package jamming implements the multi-channel network with an n-uniform
// jamming adversary from the paper's Section 7 discussion, and the
// Theorem 18 reduction to a dynamic cognitive radio network.
//
// The setting: n nodes share all c channels of a classic multi-channel
// network; an adversary may jam up to kJam < c/2 channels *per node, per
// slot* (n-uniform: the jamming decision is individual per node). A jammed
// channel is useless to that node. The reduction observes that the
// per-slot set of unjammed channels is a valid dynamic channel assignment:
// every node retains at least c−kJam channels, and any two nodes still
// share at least c−2·kJam, so any local-label dynamic-CRN broadcast
// algorithm — COGCAST in particular — runs unmodified with the guarantees
// of T(n, c, c−2·kJam).
//
// Assignment below *is* that reduction: it turns (network, adversary) into
// a sim.Assignment whose per-slot channel sets are the unjammed channels in
// a per-node random order (local labels, as Theorem 18 requires).
package jamming

import (
	"fmt"
	"math/rand"

	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// Jammer is an n-uniform jamming adversary: per slot it decides, for each
// node individually, which physical channels to jam. Implementations must
// be deterministic so runs are reproducible: oblivious jammers (the
// strategies below) are functions of (slot, node), while reactive ones
// (package adversary) may additionally depend on the channel outcomes of
// *earlier* slots, observed through the sim.Observer hook. No adversary
// sees the current slot's coin flips — the model grants reactions, not
// prescience — which the slot ordering enforces structurally: the
// engine materializes slot t's channel sets before resolving slot t.
type Jammer interface {
	// Name identifies the strategy in reports.
	Name() string
	// Jammed returns the physical channels jammed for node in slot. The
	// result must contain at most the adversary's budget of distinct
	// channels in [0, c).
	Jammed(slot int, node sim.NodeID) []int
}

// Assignment adapts a jammed c-channel network to sim.Assignment per the
// Theorem 18 reduction. PerNode reports c (the full spectrum); actual
// per-slot sets are smaller, which protocols observe through
// sim.NodeView.NumChannels. MinOverlap reports the guaranteed c−2·kJam.
type Assignment struct {
	n, c, kJam int
	jammer     Jammer
	seed       int64

	cachedSlot int
	cached     [][]int
	blocked    []bool     // per-node jammed mask, all false between nodes
	r          *rand.Rand // re-seeded per (slot, node); see fill
	sink       trace.Sink
}

var _ sim.Assignment = (*Assignment)(nil)

// NewAssignment builds the reduction for n nodes, c channels, and an
// adversary budget of kJam < c/2 jammed channels per node per slot.
func NewAssignment(n, c, kJam int, jammer Jammer, seed int64) (*Assignment, error) {
	if n < 1 {
		return nil, fmt.Errorf("jamming: n=%d must be positive", n)
	}
	if c < 1 {
		return nil, fmt.Errorf("jamming: c=%d must be positive", c)
	}
	if kJam < 0 || 2*kJam >= c {
		return nil, fmt.Errorf("jamming: budget kJam=%d must satisfy 0 <= kJam < c/2 = %d/2", kJam, c)
	}
	if jammer == nil {
		return nil, fmt.Errorf("jamming: nil jammer")
	}
	a := &Assignment{n: n, c: c, kJam: kJam, jammer: jammer, seed: seed, cachedSlot: -1, blocked: make([]bool, c)}
	a.cached = make([][]int, n)
	for u := range a.cached {
		a.cached[u] = make([]int, 0, c)
	}
	return a, nil
}

// Nodes returns n.
func (a *Assignment) Nodes() int { return a.n }

// Channels returns c (all channels are physical spectrum here).
func (a *Assignment) Channels() int { return a.c }

// PerNode returns c, the nominal spectrum size.
func (a *Assignment) PerNode() int { return a.c }

// MinOverlap returns the reduction's guarantee c − 2·kJam.
func (a *Assignment) MinOverlap() int { return a.c - 2*a.kJam }

// ChannelSet returns the node's unjammed channels for the slot in a
// node-private random order.
func (a *Assignment) ChannelSet(node sim.NodeID, slot int) []int {
	if slot != a.cachedSlot {
		a.fill(slot)
	}
	return a.cached[node]
}

// SetTrace attaches (or, with nil, detaches) a sink receiving one
// trace.KindJam event per slot summarizing the adversary's injections.
// Call it before the run starts; the assignment emits for every slot it
// materializes while a sink is attached.
func (a *Assignment) SetTrace(sink trace.Sink) { a.sink = sink }

func (a *Assignment) fill(slot int) {
	jammedTotal := 0
	for u := 0; u < a.n; u++ {
		jammed := a.jammer.Jammed(slot, sim.NodeID(u))
		if len(jammed) > a.kJam {
			// An over-budget adversary would void the reduction's overlap
			// guarantee; clamp to the budget rather than corrupt the model.
			jammed = jammed[:a.kJam]
		}
		for _, ch := range jammed {
			if ch >= 0 && ch < a.c && !a.blocked[ch] {
				a.blocked[ch] = true
				jammedTotal++
			}
		}
		set := a.cached[u][:0]
		for ch := 0; ch < a.c; ch++ {
			if a.blocked[ch] {
				a.blocked[ch] = false
			} else {
				set = append(set, ch)
			}
		}
		a.r = rng.Reseed(a.r, a.seed, int64(slot), int64(u), 0x1a3)
		a.r.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		a.cached[u] = set
	}
	a.cachedSlot = slot
	if a.sink != nil {
		a.sink.Emit(trace.JamEvent(slot, jammedTotal, a.kJam))
	}
}

// --- Adversary strategies --------------------------------------------------------

// RandomJammer jams a fresh uniform random budget-size channel set per node
// per slot — the fully n-uniform oblivious adversary.
type RandomJammer struct {
	c, budget int
	seed      int64
	r         *rand.Rand // re-seeded per (slot, node)
	perm      []int
}

var _ Jammer = (*RandomJammer)(nil)

// NewRandomJammer builds a random jammer over c channels with the given
// per-node budget.
func NewRandomJammer(c, budget int, seed int64) *RandomJammer {
	return &RandomJammer{c: c, budget: budget, seed: seed}
}

// Name implements Jammer.
func (*RandomJammer) Name() string { return "random" }

// Jammed implements Jammer.
func (j *RandomJammer) Jammed(slot int, node sim.NodeID) []int {
	j.r = rng.Reseed(j.r, j.seed, int64(slot), int64(node), 0x1a4)
	j.perm = rng.PermInto(j.r, j.perm, j.c)
	return j.perm[:j.budget]
}

// SweepJammer jams a contiguous window that slides across the spectrum,
// the same window for every node (a 1-uniform adversary — the weakest end
// of the n-uniform family).
type SweepJammer struct {
	c, budget int
	buf       []int
}

var _ Jammer = (*SweepJammer)(nil)

// NewSweepJammer builds a sweeping jammer over c channels.
func NewSweepJammer(c, budget int) *SweepJammer {
	return &SweepJammer{c: c, budget: budget, buf: make([]int, budget)}
}

// Name implements Jammer.
func (*SweepJammer) Name() string { return "sweep" }

// Jammed implements Jammer.
func (j *SweepJammer) Jammed(slot int, _ sim.NodeID) []int {
	for i := 0; i < j.budget; i++ {
		j.buf[i] = (slot*j.budget + i) % j.c
	}
	return j.buf
}

// BlockSweepJammer partitions the spectrum into fixed budget-sized blocks
// and dwells on each block for a number of slots before moving to the
// next — a deterministic scanning adversary (think a swept-frequency
// interferer parked on one band at a time). Like SweepJammer it is
// 1-uniform; unlike it, the jammed set is stable across the dwell window,
// which punishes protocols that retry on the same channel.
type BlockSweepJammer struct {
	c, budget, dwell int
	buf              []int
}

var _ Jammer = (*BlockSweepJammer)(nil)

// NewBlockSweepJammer builds a block-sweeping jammer over c channels that
// jams one budget-sized block for dwell slots before advancing.
func NewBlockSweepJammer(c, budget, dwell int) *BlockSweepJammer {
	if dwell < 1 {
		dwell = 1
	}
	return &BlockSweepJammer{c: c, budget: budget, dwell: dwell, buf: make([]int, budget)}
}

// Name implements Jammer.
func (*BlockSweepJammer) Name() string { return "block" }

// Jammed implements Jammer.
func (j *BlockSweepJammer) Jammed(slot int, _ sim.NodeID) []int {
	if j.budget == 0 {
		return nil
	}
	numBlocks := (j.c + j.budget - 1) / j.budget
	block := (slot / j.dwell) % numBlocks
	for i := 0; i < j.budget; i++ {
		j.buf[i] = (block*j.budget + i) % j.c
	}
	return j.buf
}

// SplitJammer partitions nodes into groups and jams a different window per
// group, exercising genuine n-uniformity: two nodes in different groups see
// different jammed spectra in the same slot.
type SplitJammer struct {
	c, budget, groups int
	buf               []int
}

var _ Jammer = (*SplitJammer)(nil)

// NewSplitJammer builds a split jammer with the given group count.
func NewSplitJammer(c, budget, groups int) *SplitJammer {
	if groups < 1 {
		groups = 1
	}
	return &SplitJammer{c: c, budget: budget, groups: groups, buf: make([]int, budget)}
}

// Name implements Jammer.
func (*SplitJammer) Name() string { return "split" }

// Jammed implements Jammer.
func (j *SplitJammer) Jammed(slot int, node sim.NodeID) []int {
	group := int(node) % j.groups
	base := (slot + group*j.c/j.groups) % j.c
	for i := 0; i < j.budget; i++ {
		j.buf[i] = (base + i) % j.c
	}
	return j.buf
}

// NoJammer never jams — the control arm of the jamming experiments.
type NoJammer struct{}

var _ Jammer = (*NoJammer)(nil)

// Name implements Jammer.
func (NoJammer) Name() string { return "none" }

// Jammed implements Jammer.
func (NoJammer) Jammed(int, sim.NodeID) []int { return nil }
