// Package assign builds channel assignments for the cognitive radio model:
// n nodes, C physical channels, each node holding c of them, every pair of
// nodes overlapping on at least k. Generators cover the topologies the
// paper's analysis distinguishes — a fully shared spectrum, a small shared
// core with private remainders (the lower-bound construction of Theorem 16),
// pairwise-dedicated overlaps (the "every pair shares a distinct set" case
// of Claim 2), and uniformly random sets — plus a dynamic wrapper that
// re-draws sets every slot while preserving the overlap guarantee
// (Theorem 17 / the discussion in Sections 4 and 7).
//
// Label models: the paper's default is *local* labels (each node names its
// channels in an arbitrary private order); *global* labels (a shared
// numbering) strengthen algorithms and weaken lower bounds. Here a label
// model is a property of the assignment: local index i of node u maps to
// the physical channel ChannelSet(u, slot)[i].
package assign

import (
	"errors"
	"fmt"

	"github.com/cogradio/crn/internal/sim"
)

// LabelModel selects how nodes' local channel indices relate to physical
// channels.
type LabelModel uint8

const (
	// LocalLabels gives every node an independent random ordering of its
	// channel set. This is the paper's default model.
	LocalLabels LabelModel = iota + 1
	// GlobalLabels orders every node's set by physical channel index, so
	// co-assigned channels appear in a globally consistent order. (With a
	// full-overlap assignment this makes local index i the same physical
	// channel for all nodes, which is what e.g. the hopping-together
	// baseline exploits.)
	GlobalLabels
)

// String returns the label model's name.
func (m LabelModel) String() string {
	switch m {
	case LocalLabels:
		return "local"
	case GlobalLabels:
		return "global"
	default:
		return "invalid"
	}
}

// Static is an immutable channel assignment. It implements sim.Assignment.
//
// Sets live in one flat backing array of n·c ints with sets[u] a subslice,
// so an assignment is two allocations regardless of n — and a Builder can
// regenerate one into the same backing across trials.
type Static struct {
	channels   int // C
	perNode    int // c
	minOverlap int // k, as guaranteed by construction
	backing    []int
	sets       [][]int

	// The lazily built channel→members reverse index, invalidated whenever
	// a Builder regenerates the assignment. The invalidated index is kept
	// as spare, and the next build reuses its arrays.
	index, spare *Index
}

var _ sim.FixedAssignment = (*Static)(nil)

// Nodes returns n.
func (s *Static) Nodes() int { return len(s.sets) }

// Channels returns C.
func (s *Static) Channels() int { return s.channels }

// PerNode returns c.
func (s *Static) PerNode() int { return s.perNode }

// MinOverlap returns k.
func (s *Static) MinOverlap() int { return s.minOverlap }

// ChannelSet returns node's channel set; static assignments ignore slot.
func (s *Static) ChannelSet(node sim.NodeID, _ int) []int { return s.sets[node] }

// FixedChannelSets reports that a built Static never remaps a node and is
// immutable, so the engine may shard its scan over it and park listeners by
// physical channel.
func (s *Static) FixedChannelSets() bool { return true }

// Validate checks every structural invariant of the model: set sizes equal
// c, channels lie in [0, C), sets contain no duplicates, and every pair of
// nodes overlaps on at least k channels. It is O(n·c + n²) using bitmap
// intersection counts and is intended for tests and generator verification.
func (s *Static) Validate() error {
	n := len(s.sets)
	if s.perNode < 1 || s.minOverlap < 1 || s.minOverlap > s.perNode {
		return fmt.Errorf("assign: invalid parameters c=%d k=%d", s.perNode, s.minOverlap)
	}
	words := (s.channels + 63) / 64
	masks := make([][]uint64, n)
	for u, set := range s.sets {
		if len(set) != s.perNode {
			return fmt.Errorf("assign: node %d has %d channels, want c=%d", u, len(set), s.perNode)
		}
		mask := make([]uint64, words)
		for _, ch := range set {
			if ch < 0 || ch >= s.channels {
				return fmt.Errorf("assign: node %d holds channel %d outside [0,%d)", u, ch, s.channels)
			}
			w, b := ch/64, uint(ch%64)
			if mask[w]&(1<<b) != 0 {
				return fmt.Errorf("assign: node %d holds channel %d twice", u, ch)
			}
			mask[w] |= 1 << b
		}
		masks[u] = mask
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if got := overlap(masks[u], masks[v]); got < s.minOverlap {
				return fmt.Errorf("assign: nodes %d and %d overlap on %d < k=%d channels", u, v, got, s.minOverlap)
			}
		}
	}
	return nil
}

func overlap(a, b []uint64) int {
	total := 0
	for i := range a {
		total += popcount(a[i] & b[i])
	}
	return total
}

func popcount(x uint64) int {
	// Kernighan's loop is plenty here; Validate is test-path only.
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Overlap returns the number of physical channels nodes u and v share in
// slot 0. It is a convenience for tests and analysis, answered from the
// reverse index: a bitset intersection when the index carries bitsets, a
// membership probe per channel otherwise.
func (s *Static) Overlap(u, v sim.NodeID) int {
	idx := s.Index()
	if idx.words > 0 {
		a := idx.bits[int(u)*idx.words : (int(u)+1)*idx.words]
		b := idx.bits[int(v)*idx.words : (int(v)+1)*idx.words]
		return overlapCount(a, b)
	}
	n := 0
	for _, ch := range s.sets[u] {
		if idx.Contains(v, ch) {
			n++
		}
	}
	return n
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func checkCommon(n, c, k int, model LabelModel) error {
	if n < 1 {
		return errors.New("assign: need at least one node")
	}
	if c < 1 {
		return fmt.Errorf("assign: c=%d must be positive", c)
	}
	if k < 1 || k > c {
		return fmt.Errorf("assign: k=%d must be in [1, c=%d]", k, c)
	}
	if model != LocalLabels && model != GlobalLabels {
		return fmt.Errorf("assign: invalid label model %d", model)
	}
	return nil
}
