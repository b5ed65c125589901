package invariant

import (
	"fmt"
	"math/rand"

	"github.com/cogradio/crn/internal/sim"
)

// exhaustivePairNodes is the largest n for which CheckAssignment verifies
// every pair's overlap. Beyond it the O(n²·c) sweep is infeasible (a
// 10⁵-node assignment has 5·10⁹ pairs), so the check switches to the ring
// of adjacent pairs plus a deterministic random sample — every node is
// still covered at least twice, and a construction bug that shorts the
// k-overlap contract for a constant fraction of pairs is still caught with
// overwhelming probability.
const exhaustivePairNodes = 4096

// sampledPairsPerNode scales the random-pair sample in the large-n regime.
const sampledPairsPerNode = 4

// CheckAssignment independently verifies an assignment's (n, C, c, k)
// contract for one slot: parameters are sane, every channel set is
// non-empty, duplicate-free, within [0, C) and no larger than c, and every
// pair of nodes overlaps on at least k channels. The sets are copied once
// into a flat array and an open-addressed membership table, both the
// oracle's own, and overlap is counted over them — deliberately not
// assign.Validate's bitmap path — so the two implementations cross-check
// each other.
//
// For static assignments one slot covers all of them; for per-slot
// assignments (dynamic, jamming) it verifies the given slot, and the
// per-slot Checker covers membership of the channels actually used in
// every other slot. Pairwise overlap is exhaustive up to
// exhaustivePairNodes nodes — O(n²·c), call it once per run, not per
// slot — and sampled (ring + seeded random pairs, O(n·c)) above that.
func CheckAssignment(a sim.Assignment, slot int) error {
	n, total, c, k := a.Nodes(), a.Channels(), a.PerNode(), a.MinOverlap()
	if n < 1 {
		return fmt.Errorf("invariant: assignment has n=%d nodes", n)
	}
	if total < 1 || c < 1 || c > total {
		return fmt.Errorf("invariant: assignment parameters C=%d, c=%d violate 1 <= c <= C", total, c)
	}
	if k < 1 || k > c {
		return fmt.Errorf("invariant: assignment overlap k=%d violates 1 <= k <= c=%d", k, c)
	}
	if total > maxTableChannel {
		return fmt.Errorf("invariant: assignment has C=%d channels, more than the oracle's %d", total, maxTableChannel)
	}
	// Node u's set is flat[off[u]:off[u+1]], in ChannelSet order; member
	// holds the same channels for lookups.
	flat := make([]int32, 0, n*c)
	off := make([]int32, n+1)
	var member memberTable
	member.reset(n, c, total)
	for u := 0; u < n; u++ {
		set := a.ChannelSet(sim.NodeID(u), slot)
		if len(set) == 0 {
			return fmt.Errorf("invariant: node %d has an empty channel set in slot %d", u, slot)
		}
		if len(set) > c {
			return fmt.Errorf("invariant: node %d has %d channels, more than c=%d", u, len(set), c)
		}
		for _, ch := range set {
			if ch < 0 || ch >= total {
				return fmt.Errorf("invariant: node %d holds channel %d outside [0,%d)", u, ch, total)
			}
			if !member.insert(u, int32(ch)) {
				return fmt.Errorf("invariant: node %d holds channel %d twice", u, ch)
			}
			flat = append(flat, int32(ch))
		}
		off[u+1] = int32(len(flat))
	}
	checkPair := func(u, v int) error {
		overlap := 0
		for _, ch := range flat[off[v]:off[v+1]] {
			if member.has(u, ch) {
				overlap++
			}
		}
		if overlap < k {
			return fmt.Errorf("invariant: nodes %d and %d overlap on %d channels, below k=%d (slot %d)",
				u, v, overlap, k, slot)
		}
		return nil
	}
	if n <= exhaustivePairNodes {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if err := checkPair(u, v); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Large-n regime: ring pairs cover every node, then a seeded sample
	// spreads coverage across distant pairs. The seed folds in n and the
	// slot so repeated checks of one run re-draw the same pairs (the oracle
	// stays deterministic) while different sizes probe different pairs.
	for u := 0; u < n; u++ {
		if err := checkPair(u, (u+1)%n); err != nil {
			return err
		}
	}
	rnd := rand.New(rand.NewSource(0x0a551647 ^ int64(n)<<16 ^ int64(slot)))
	for i := 0; i < sampledPairsPerNode*n; i++ {
		u, v := rnd.Intn(n), rnd.Intn(n)
		if u == v {
			continue
		}
		if err := checkPair(u, v); err != nil {
			return err
		}
	}
	return nil
}
