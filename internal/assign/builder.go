package assign

import (
	"fmt"
	"math/rand"

	"github.com/cogradio/crn/internal/rng"
)

// Builder regenerates static assignments in place. Each build writes the new
// assignment into the builder's flat backing array (one []int of length n·c,
// with per-node sets as subslices) and re-seeds one reusable generator for
// every random draw, so a warm builder constructs assignments without
// allocating. The random draws are exactly those of the package-level
// generator functions — a built assignment is byte-identical to a fresh one
// for the same parameters and seed — which is what lets trial arenas reuse a
// Builder without perturbing experiment output.
//
// The returned *Static aliases builder-owned memory: it is valid until the
// next build on the same Builder. A Builder must not be shared across
// goroutines; trial runners keep one per worker.
type Builder struct {
	s    Static
	r    *rand.Rand
	perm []int // randomPerm scratch
	samp []int // appendSample scratch (distinct: pools alias perm)
}

// reuse shapes the builder's Static for n nodes holding c of totalChannels
// channels with overlap k. Every per-node set comes back empty (length 0,
// capacity c) as a subslice of the flat backing array, ready for appends.
func (b *Builder) reuse(n, c, totalChannels, k int) *Static {
	s := &b.s
	s.channels, s.perNode, s.minOverlap = totalChannels, c, k
	if s.index != nil {
		s.spare, s.index = s.index, nil
	}
	need := n * c
	if cap(s.backing) < need {
		s.backing = make([]int, need)
	}
	s.backing = s.backing[:need]
	if cap(s.sets) < n {
		s.sets = make([][]int, n)
	}
	s.sets = s.sets[:n]
	for u := range s.sets {
		s.sets[u] = s.backing[u*c : u*c : (u+1)*c]
	}
	return s
}

// rand returns the builder's generator re-seeded to the stream of
// rng.New(seed, ids...).
func (b *Builder) rand(seed int64, ids ...int64) *rand.Rand {
	b.r = rng.Reseed(b.r, seed, ids...)
	return b.r
}

// randomPerm returns a permutation of 0..n-1 drawn from the (seed, ids...)
// stream, in the builder's reusable scratch.
func (b *Builder) randomPerm(n int, seed int64, ids ...int64) []int {
	b.perm = rng.PermInto(b.rand(seed, ids...), b.perm, n)
	return b.perm
}

// appendSample appends m distinct elements of pool, chosen uniformly by r,
// to dst. Draw-for-draw it matches the historical sampleWithout (a full
// permutation of the pool, first m positions taken).
func (b *Builder) appendSample(dst, pool []int, m int, r *rand.Rand) []int {
	if m == 0 {
		return dst
	}
	b.samp = rng.PermInto(r, b.samp, len(pool))
	for _, j := range b.samp[:m] {
		dst = append(dst, pool[j])
	}
	return dst
}

// applyLabels orders each node's set according to the label model. Sets
// arrive from generators in construction order; GlobalLabels sorts them by
// physical index, LocalLabels shuffles each with a node-specific stream.
func (b *Builder) applyLabels(sets [][]int, model LabelModel, seed int64) error {
	switch model {
	case GlobalLabels:
		for _, set := range sets {
			insertionSort(set)
		}
	case LocalLabels:
		for u, set := range sets {
			r := b.rand(seed, int64(u), 0x1ab)
			r.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		}
	default:
		return fmt.Errorf("assign: invalid label model %d", model)
	}
	return nil
}

// finish applies labels and hands the assignment out.
func (b *Builder) finish(s *Static, model LabelModel, seed int64) (*Static, error) {
	if err := b.applyLabels(s.sets, model, seed); err != nil {
		return nil, err
	}
	return s, nil
}

// FullOverlap regenerates the FullOverlap assignment into the builder's
// backing arrays.
func (b *Builder) FullOverlap(n, c int, model LabelModel, seed int64) (*Static, error) {
	if err := checkCommon(n, c, c, model); err != nil {
		return nil, err
	}
	s := b.reuse(n, c, c, c)
	for u := range s.sets {
		set := s.sets[u]
		for i := 0; i < c; i++ {
			set = append(set, i)
		}
		s.sets[u] = set
	}
	return b.finish(s, model, seed)
}

// Partitioned regenerates the Partitioned assignment into the builder's
// backing arrays.
func (b *Builder) Partitioned(n, c, k int, model LabelModel, seed int64) (*Static, error) {
	if err := checkCommon(n, c, k, model); err != nil {
		return nil, err
	}
	total := k + n*(c-k)
	perm := b.randomPerm(total, seed, 0x9a27)
	s := b.reuse(n, c, total, k)
	core := perm[:k]
	next := k
	for u := range s.sets {
		set := append(s.sets[u], core...)
		set = append(set, perm[next:next+(c-k)]...)
		next += c - k
		s.sets[u] = set
	}
	return b.finish(s, model, seed)
}

// SharedCore regenerates the SharedCore assignment into the builder's
// backing arrays.
func (b *Builder) SharedCore(n, c, k, totalChannels int, model LabelModel, seed int64) (*Static, error) {
	if err := checkCommon(n, c, k, model); err != nil {
		return nil, err
	}
	if totalChannels < c {
		return nil, fmt.Errorf("assign: C=%d must be at least c=%d", totalChannels, c)
	}
	perm := b.randomPerm(totalChannels, seed, 0x5c0)
	core := perm[:k]
	pool := perm[k:]
	s := b.reuse(n, c, totalChannels, k)
	for u := range s.sets {
		r := b.rand(seed, int64(u), 0x5c1)
		set := append(s.sets[u], core...)
		s.sets[u] = b.appendSample(set, pool, c-k, r)
	}
	return b.finish(s, model, seed)
}

// PairwiseDedicated regenerates the PairwiseDedicated assignment into the
// builder's backing arrays.
func (b *Builder) PairwiseDedicated(n, c, k int, model LabelModel, seed int64) (*Static, error) {
	if err := checkCommon(n, c, k, model); err != nil {
		return nil, err
	}
	if need := k * (n - 1); c < need {
		return nil, fmt.Errorf("assign: pairwise-dedicated needs c >= k(n-1) = %d, got c=%d", need, c)
	}
	private := c - k*(n-1)
	total := k*n*(n-1)/2 + n*private
	perm := b.randomPerm(total, seed, 0x9a1e)
	s := b.reuse(n, c, total, k)
	next := 0
	take := func(m int) []int {
		t := perm[next : next+m]
		next += m
		return t
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pair := take(k)
			s.sets[u] = append(s.sets[u], pair...)
			s.sets[v] = append(s.sets[v], pair...)
		}
	}
	for u := 0; u < n; u++ {
		s.sets[u] = append(s.sets[u], take(private)...)
	}
	return b.finish(s, model, seed)
}

// RandomPool regenerates the RandomPool assignment into the builder's
// backing arrays.
func (b *Builder) RandomPool(n, c, k, totalChannels int, model LabelModel, seed int64) (*Static, error) {
	if err := checkCommon(n, c, k, model); err != nil {
		return nil, err
	}
	if totalChannels < c {
		return nil, fmt.Errorf("assign: C=%d must be at least c=%d", totalChannels, c)
	}
	for try := 0; try < maxRandomPoolTries; try++ {
		s := b.reuse(n, c, totalChannels, k)
		for u := range s.sets {
			// The historical draw is a full permutation of an identity pool,
			// of which the first c entries become the set.
			r := b.rand(seed, int64(try), int64(u), 0x4a11)
			b.samp = rng.PermInto(r, b.samp, totalChannels)
			s.sets[u] = append(s.sets[u], b.samp[:c]...)
		}
		if s.Validate() == nil {
			return b.finish(s, model, seed)
		}
	}
	return nil, fmt.Errorf("assign: no uniform draw with pairwise overlap >= %d found in %d tries (n=%d c=%d C=%d); expected overlap is c²/C = %.1f",
		k, maxRandomPoolTries, n, c, totalChannels, float64(c*c)/float64(totalChannels))
}

// TwoSet regenerates the TwoSet assignment into the builder's backing
// arrays.
func (b *Builder) TwoSet(n, c, k int, model LabelModel, seed int64) (*Static, error) {
	if err := checkCommon(n, c, k, model); err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("assign: two-set network needs n >= 2, got %d", n)
	}
	total := 2*c - k
	perm := b.randomPerm(total, seed, 0x25e7)
	s := b.reuse(n, c, total, k)
	shared := perm[:k]
	aPriv := perm[k:c]
	bPriv := perm[c:]
	s.sets[0] = append(append(s.sets[0], shared...), aPriv...)
	for u := 1; u < n; u++ {
		s.sets[u] = append(append(s.sets[u], shared...), bPriv...)
	}
	return b.finish(s, model, seed)
}
