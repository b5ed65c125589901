package invariant

import (
	"math"

	"github.com/cogradio/crn/internal/sim"
)

// memberTable is the oracle's own copy of every node's channel set, laid
// out for constant-time membership. Its rows take one of two layouts,
// picked at reset from the channel count C and the longest set c alone:
//
//   - a bitmap row of ⌈C/64⌉ words, bit ch set when the node holds ch,
//     wherever that row is no wider than a hash row (C = 48, c = 16 needs
//     one word against a 128-byte hash row);
//   - otherwise an open-addressed hash row, the next power of two at least
//     2c int32 slots wide, probed linearly from a multiplicative hash of
//     the channel. A row is at most half full, so a probe meets the
//     channel or an empty slot within a few steps. Partitioned shapes,
//     whose C grows with n, land here.
//
// Only the chosen layout is allocated, so neither is ever wider than the
// hash row. The rows are filled from ChannelSet alone, never from assign's
// bitmaps or index. Lookups and inserts take a channel in [0, C): a larger
// one would read a bitmap row's neighbour.
type memberTable struct {
	words int      // bitmap row width in words; 0 selects the hash rows
	bits  []uint64 // bitmap row u is bits[u*words : (u+1)*words]
	slots []int32  // hash row u is slots[u<<shift : (u+1)<<shift]
	shift uint     // log2 of the hash row width, at least 1
}

// emptySlot marks a free hash slot; channels are never negative.
const emptySlot = -1

// maxTableChannel bounds the channels a table can hold: slots are int32.
const maxTableChannel = math.MaxInt32

// reset sizes the table to n empty rows over numChan channels that fit
// sets of up to widest channels, picking the layout and reusing its
// backing array when it is large enough. The other layout's array is
// dropped.
func (t *memberTable) reset(n, widest, numChan int) {
	t.shift = 1
	for 1<<t.shift < 2*widest {
		t.shift++
	}
	if words := (numChan + 63) / 64; 8*words <= 4<<t.shift {
		t.words, t.slots = words, nil
		need := n * words
		if cap(t.bits) < need {
			t.bits = make([]uint64, need)
		}
		t.bits = t.bits[:need]
		clear(t.bits)
		return
	}
	t.words, t.bits = 0, nil
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
	t.reset(n, widest, numChan)
	for u := 0; u < n; u++ {
		for _, ch := range asn.ChannelSet(sim.NodeID(u), 0) {
			if ch >= 0 && ch < numChan {
				t.insert(u, int32(ch))
			}
		}
	}
}

// row returns node u's hash slots and the probe mask over them.
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
	if t.words > 0 {
		w, bit := &t.bits[u*t.words+int(ch>>6)], uint64(1)<<(ch&63)
		if *w&bit != 0 {
			return false
		}
		*w |= bit
		return true
	}
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
	if t.words > 0 {
		return t.bits[u*t.words+int(ch>>6)]>>(ch&63)&1 != 0
	}
	return t.probe(u, ch)
}

// probe reports whether node u's hash row holds ch.
func (t *memberTable) probe(u int, ch int32) bool {
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
