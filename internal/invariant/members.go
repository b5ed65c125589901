package invariant

import (
	"math"

	"github.com/cogradio/crn/internal/sim"
)

// memberTable is the oracle's own copy of every node's channel set, laid
// out for constant-time membership: one open-addressed row per node, the
// next power of two at least twice the longest set wide, probed linearly
// from a multiplicative hash of the channel. A row is at most half full,
// so a probe meets the channel or an empty slot within a few steps. It is
// filled from ChannelSet alone, never from assign's bitmaps or index.
type memberTable struct {
	slots []int32 // row u is slots[u<<shift : (u+1)<<shift]
	shift uint    // log2 of the row width, at least 1
}

// emptySlot marks a free slot; channels are never negative.
const emptySlot = -1

// maxTableChannel bounds the channels a table can hold: slots are int32.
const maxTableChannel = math.MaxInt32

// reset sizes the table to n empty rows that fit sets of up to widest
// channels, reusing its backing array when it is large enough.
func (t *memberTable) reset(n, widest int) {
	t.shift = 1
	for 1<<t.shift < 2*widest {
		t.shift++
	}
	need := n << t.shift
	if cap(t.slots) < need {
		t.slots = make([]int32, need)
	}
	t.slots = t.slots[:need]
	for i := range t.slots {
		t.slots[i] = emptySlot
	}
}

// load copies every node's set of the fixed assignment asn into the
// table. Only channels in [0, numChan) are kept, and each once: a lookup
// never asks for any other (OnSlot rejects out-of-range channels first).
func (t *memberTable) load(asn sim.Assignment, numChan int) {
	n, widest := asn.Nodes(), 0
	for u := 0; u < n; u++ {
		widest = max(widest, len(asn.ChannelSet(sim.NodeID(u), 0)))
	}
	t.reset(n, widest)
	for u := 0; u < n; u++ {
		for _, ch := range asn.ChannelSet(sim.NodeID(u), 0) {
			if ch >= 0 && ch < numChan {
				t.insert(u, int32(ch))
			}
		}
	}
}

// row returns node u's slots and the probe mask over them.
func (t *memberTable) row(u int) ([]int32, uint32) {
	w := 1 << t.shift
	return t.slots[u<<t.shift:][:w], uint32(w - 1)
}

// home is the slot a probe for ch starts at: the top shift bits of a
// Fibonacci hash, so consecutive channels spread across the row.
func (t *memberTable) home(ch int32) uint32 {
	return uint32(ch) * 0x9e3779b1 >> (32 - t.shift)
}

// insert adds ch to node u's row and reports whether it was absent.
func (t *memberTable) insert(u int, ch int32) bool {
	row, mask := t.row(u)
	for h := t.home(ch); ; h = (h + 1) & mask {
		switch row[h] {
		case ch:
			return false
		case emptySlot:
			row[h] = ch
			return true
		}
	}
}

// has reports whether node u's row holds ch.
func (t *memberTable) has(u int, ch int32) bool {
	row, mask := t.row(u)
	for h := t.home(ch); ; h = (h + 1) & mask {
		switch row[h] {
		case ch:
			return true
		case emptySlot:
			return false
		}
	}
}
