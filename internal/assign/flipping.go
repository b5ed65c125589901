package assign

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
)

// Flipping is the middle ground between Static and Dynamic: channel sets
// follow SharedCore semantics (a k-channel shared core plus uniformly drawn
// extras) but are re-drawn only at a declared list of flip slots instead of
// every slot. This models operator-driven reassignment events — a spectrum
// database pushing new channel grants, a band being vacated — rather than
// the per-slot churn of Dynamic, and gives the scenario DSL's
// "assignment-flip" events a generator that maps directly onto the
// existing SharedCore machinery. Pairwise overlap stays >= k across every
// flip because the core never changes.
type Flipping struct {
	n, total, perNode, minOverlap int
	core                          []int
	pool                          []int
	seed                          int64
	flips                         []int // ascending slots at which sets re-draw

	cachedEpoch int
	cached      [][]int
	r           *rand.Rand
	permBuf     []int
}

var _ sim.Assignment = (*Flipping)(nil)

// NewFlipping builds a flipping assignment over totalChannels channels with
// a k-channel shared core; at every slot listed in flips each node re-draws
// its c−k non-core channels uniformly from the remaining pool (epoch 0 runs
// from slot 0 to the first flip). Flip slots must be positive and strictly
// increasing. Requires totalChannels >= c.
func NewFlipping(n, c, k, totalChannels int, seed int64, flips []int) (*Flipping, error) {
	if err := checkCommon(n, c, k, LocalLabels); err != nil {
		return nil, err
	}
	if totalChannels < c {
		return nil, fmt.Errorf("assign: C=%d must be at least c=%d", totalChannels, c)
	}
	for i, s := range flips {
		if s < 1 {
			return nil, fmt.Errorf("assign: flip slot %d must be positive", s)
		}
		if i > 0 && s <= flips[i-1] {
			return nil, fmt.Errorf("assign: flip slots must be strictly increasing (%d after %d)", s, flips[i-1])
		}
	}
	perm := rng.New(seed, 0xd1a).Perm(totalChannels)
	f := &Flipping{
		n:           n,
		total:       totalChannels,
		perNode:     c,
		minOverlap:  k,
		core:        perm[:k],
		pool:        perm[k:],
		seed:        seed,
		flips:       append([]int(nil), flips...),
		cachedEpoch: -1,
		cached:      make([][]int, n),
	}
	for u := range f.cached {
		f.cached[u] = make([]int, c)
	}
	return f, nil
}

// Nodes returns n.
func (f *Flipping) Nodes() int { return f.n }

// Channels returns C.
func (f *Flipping) Channels() int { return f.total }

// PerNode returns c.
func (f *Flipping) PerNode() int { return f.perNode }

// MinOverlap returns k.
func (f *Flipping) MinOverlap() int { return f.minOverlap }

// epoch returns how many flips have happened by the slot (0 before the
// first flip).
func (f *Flipping) epoch(slot int) int {
	return sort.SearchInts(f.flips, slot+1)
}

// ChannelSet returns the node's channel set for the slot, re-drawing all
// nodes' sets when the slot crosses a flip boundary. Draws are keyed by
// (seed, epoch, node), so a set is a pure function of which flips have
// fired — not of how the engine interleaves queries.
func (f *Flipping) ChannelSet(node sim.NodeID, slot int) []int {
	if e := f.epoch(slot); e != f.cachedEpoch {
		f.fill(e)
	}
	return f.cached[node]
}

func (f *Flipping) fill(epoch int) {
	c, k := f.perNode, f.minOverlap
	for u := 0; u < f.n; u++ {
		if f.r == nil {
			f.r = rng.New(f.seed, int64(epoch), int64(u), 0xf11b)
		} else {
			rng.Reseed(f.r, f.seed, int64(epoch), int64(u), 0xf11b)
		}
		r := f.r
		set := f.cached[u][:0]
		set = append(set, f.core...)
		if c > k {
			f.permBuf = rng.PermInto(r, f.permBuf, len(f.pool))
			for _, j := range f.permBuf[:c-k] {
				set = append(set, f.pool[j])
			}
		}
		r.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		f.cached[u] = set
	}
	f.cachedEpoch = epoch
}
