package assign

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
)

// Redrawn is a slot-varying SharedCore assignment: a k-channel core shared
// by every node survives all re-draws, and at the start of each epoch every
// node re-draws its c−k non-core channels uniformly from the remaining pool
// and shuffles its whole set (labels are always local). Pairwise overlap
// therefore stays >= k in every slot. Two epoch rules exist:
//
//   - NewDynamic starts an epoch every slot, modelling the dynamic setting
//     of Theorem 17 and the discussions in Sections 4 and 7. COGCAST runs
//     over it unmodified; COGCOMP does not (its later phases revisit
//     channels), matching the paper.
//   - NewFlipping starts one at each declared flip slot, modelling
//     operator-driven reassignment events (a spectrum database pushing new
//     grants, a band being vacated) and the scenario DSL's
//     "assignment-flip" events.
//
// A set is a pure function of (seed, epoch, node), not of how the engine
// interleaves queries, so runs stay reproducible.
type Redrawn struct {
	n, total, perNode, minOverlap int
	core                          []int
	pool                          []int
	seed                          int64
	tag                           int64 // stream tag of the per-epoch draws
	everySlot                     bool  // every slot starts an epoch
	flips                         []int // ascending slots at which sets re-draw

	cachedEpoch int
	cached      [][]int
	r           *rand.Rand // re-seeded per (epoch, node); see fill
	permBuf     []int
}

var _ sim.Assignment = (*Redrawn)(nil)

// NewDynamic builds a dynamic assignment over totalChannels channels with a
// k-channel shared core; every slot each node re-draws its c−k non-core
// channels uniformly from the remaining pool. Requires totalChannels >= c.
func NewDynamic(n, c, k, totalChannels int, seed int64) (*Redrawn, error) {
	d, err := newRedrawn(n, c, k, totalChannels, seed, 0xd1b)
	if err != nil {
		return nil, err
	}
	d.everySlot = true
	return d, nil
}

// NewFlipping builds a flipping assignment over totalChannels channels with
// a k-channel shared core; at every slot listed in flips each node re-draws
// its c−k non-core channels uniformly from the remaining pool (epoch 0 runs
// from slot 0 to the first flip). Flip slots must be positive and strictly
// increasing. Requires totalChannels >= c.
func NewFlipping(n, c, k, totalChannels int, seed int64, flips []int) (*Redrawn, error) {
	d, err := newRedrawn(n, c, k, totalChannels, seed, 0xf11b)
	if err != nil {
		return nil, err
	}
	for i, s := range flips {
		if s < 1 {
			return nil, fmt.Errorf("assign: flip slot %d must be positive", s)
		}
		if i > 0 && s <= flips[i-1] {
			return nil, fmt.Errorf("assign: flip slots must be strictly increasing (%d after %d)", s, flips[i-1])
		}
	}
	d.flips = append([]int(nil), flips...)
	return d, nil
}

func newRedrawn(n, c, k, totalChannels int, seed, tag int64) (*Redrawn, error) {
	if err := checkCommon(n, c, k, LocalLabels); err != nil {
		return nil, err
	}
	if totalChannels < c {
		return nil, fmt.Errorf("assign: C=%d must be at least c=%d", totalChannels, c)
	}
	perm := rng.New(seed, 0xd1a).Perm(totalChannels)
	d := &Redrawn{
		n:           n,
		total:       totalChannels,
		perNode:     c,
		minOverlap:  k,
		core:        perm[:k],
		pool:        perm[k:],
		seed:        seed,
		tag:         tag,
		cachedEpoch: -1,
		cached:      make([][]int, n),
	}
	for u := range d.cached {
		d.cached[u] = make([]int, c)
	}
	return d, nil
}

// Nodes returns n.
func (d *Redrawn) Nodes() int { return d.n }

// Channels returns C.
func (d *Redrawn) Channels() int { return d.total }

// PerNode returns c.
func (d *Redrawn) PerNode() int { return d.perNode }

// MinOverlap returns k.
func (d *Redrawn) MinOverlap() int { return d.minOverlap }

// epoch returns the slot's epoch: the slot itself for a dynamic assignment,
// and how many flips have happened by the slot for a flipping one.
func (d *Redrawn) epoch(slot int) int {
	if d.everySlot {
		return slot
	}
	return sort.SearchInts(d.flips, slot+1)
}

// ChannelSet returns the node's channel set for the slot, re-drawing all
// nodes' sets when the slot starts a new epoch. The engine queries all
// nodes for the same slot before advancing, so the one-epoch cache is
// always warm.
func (d *Redrawn) ChannelSet(node sim.NodeID, slot int) []int {
	if e := d.epoch(slot); e != d.cachedEpoch {
		d.fill(e)
	}
	return d.cached[node]
}

func (d *Redrawn) fill(epoch int) {
	c, k := d.perNode, d.minOverlap
	for u := 0; u < d.n; u++ {
		d.r = rng.Reseed(d.r, d.seed, int64(epoch), int64(u), d.tag)
		set := d.cached[u][:0]
		set = append(set, d.core...)
		if c > k {
			d.permBuf = rng.PermInto(d.r, d.permBuf, len(d.pool))
			for _, j := range d.permBuf[:c-k] {
				set = append(set, d.pool[j])
			}
		}
		d.r.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		d.cached[u] = set
	}
	d.cachedEpoch = epoch
}
