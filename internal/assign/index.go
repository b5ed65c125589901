package assign

import (
	"math/bits"
	"sort"

	"github.com/cogradio/crn/internal/sim"
)

// Index is a CSR-style reverse view of a static assignment: for every
// physical channel, the ascending list of member nodes, stored as one flat
// member array plus per-channel offsets — O(total memberships) memory with
// no per-channel slice headers, which is what keeps million-node topologies
// affordable. When the channel space is dense enough it also carries
// per-node membership bitsets for O(1) Contains; for sparse spectra (e.g.
// partitioned topologies where C grows with n) the bitsets are elided and
// Contains binary-searches the member list instead.
//
// An Index is immutable once built and safe for concurrent readers.
type Index struct {
	offsets []int32  // channel ch's members are members[offsets[ch]:offsets[ch+1]]
	members []int32  // node IDs, channel-major, node-ascending within a channel
	words   int      // bitset words per node; 0 when bitsets are elided
	bits    []uint64 // node u's bitset is bits[u*words:(u+1)*words]
	nodes   int
}

// Index returns the channel→members reverse index of the assignment,
// building it on first use and caching it until the next rebuild of the
// underlying Static. The first call is not safe to race with other calls on
// the same Static; trial arenas build per-worker assignments, so in practice
// each Index has a single owner. The index of a Builder's Static is valid
// until the next build, as the Static is: that build's index reuses its
// arrays.
func (s *Static) Index() *Index {
	if s.index == nil {
		s.index, s.spare = buildIndex(s, s.spare), nil
	}
	return s.index
}

// buildIndex builds s's index, into old's arrays if old is not nil.
func buildIndex(s *Static, old *Index) *Index {
	n := len(s.sets)
	c := s.channels
	// Tolerate malformed sets so tests on invalid Statics don't panic.
	for _, set := range s.sets {
		for _, ch := range set {
			c = max(c, ch+1)
		}
	}
	idx := &Index{nodes: n}
	if old != nil {
		idx.offsets, idx.members, idx.bits = old.offsets, old.members, old.bits[:0]
	}
	idx.offsets = zeroed(idx.offsets, c+1)
	total := 0
	for _, set := range s.sets {
		total += len(set)
		for _, ch := range set {
			if ch >= 0 {
				idx.offsets[ch+1]++
			}
		}
	}
	for ch := 0; ch < c; ch++ {
		idx.offsets[ch+1] += idx.offsets[ch]
	}
	idx.members = zeroed(idx.members, int(idx.offsets[c]))
	next := make([]int32, c)
	copy(next, idx.offsets[:c])
	// Scanning nodes in ascending order makes each channel's member list
	// node-ascending with no sort pass.
	for u, set := range s.sets {
		for _, ch := range set {
			if ch >= 0 {
				idx.members[next[ch]] = int32(u)
				next[ch]++
			}
		}
	}
	// Bitsets cost n*words*8 bytes; build them only when that is within a
	// small factor of the membership storage itself (words <= 2c, i.e.
	// C <= 128c). Partitioned spectra blow past this and fall back to
	// binary search.
	if n > 0 {
		words := (c + 63) / 64
		if perNode := total / n; words <= 2*perNode {
			idx.words = words
			idx.bits = zeroed(idx.bits, n*words)
			for u, set := range s.sets {
				row := idx.bits[u*words : (u+1)*words]
				for _, ch := range set {
					if ch >= 0 {
						row[ch/64] |= 1 << uint(ch%64)
					}
				}
			}
		}
	}
	return idx
}

// zeroed returns buf resized to n and cleared, reusing its array when it is
// large enough.
func zeroed[T int32 | uint64](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Members returns the nodes holding physical channel ch, in ascending node
// order. The slice aliases the index and must not be mutated. Channels
// outside the indexed range have no members.
func (x *Index) Members(ch int) []int32 {
	if ch < 0 || ch >= len(x.offsets)-1 {
		return nil
	}
	return x.members[x.offsets[ch]:x.offsets[ch+1]]
}

// Contains reports whether node holds physical channel ch — O(1) via bitset
// when the index carries them, O(log n) by binary search otherwise.
func (x *Index) Contains(node sim.NodeID, ch int) bool {
	u := int(node)
	if u < 0 || u >= x.nodes {
		return false
	}
	if x.words > 0 {
		if ch < 0 || ch >= x.words*64 {
			return false
		}
		return x.bits[u*x.words+ch/64]&(1<<uint(ch%64)) != 0
	}
	ms := x.Members(ch)
	i := sort.Search(len(ms), func(i int) bool { return ms[i] >= int32(u) })
	return i < len(ms) && ms[i] == int32(u)
}

// Memberships returns the total number of (node, channel) memberships — n·c
// for a well-formed assignment.
func (x *Index) Memberships() int { return len(x.members) }

// Degree returns the number of nodes holding channel ch.
func (x *Index) Degree(ch int) int { return len(x.Members(ch)) }

// HasBitsets reports whether the index carries per-node membership bitsets
// (dense spectra) or falls back to binary search (sparse spectra).
func (x *Index) HasBitsets() bool { return x.words > 0 }

// MemoryBytes returns the index's backing storage size: offsets, members and
// (when present) bitsets. Experiment E28 divides this by n to report the
// per-node footprint of the reverse representation.
func (x *Index) MemoryBytes() int64 {
	return int64(len(x.offsets))*4 + int64(len(x.members))*4 + int64(len(x.bits))*8
}

// overlapCount counts shared channels between two bitset rows.
func overlapCount(a, b []uint64) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & b[i])
	}
	return n
}
