package assign

import (
	"testing"

	"github.com/cogradio/crn/internal/sim"
)

// bruteContains re-derives membership straight from the forward sets.
func bruteContains(s *Static, u sim.NodeID, ch int) bool {
	for _, c := range s.ChannelSet(u, 0) {
		if c == ch {
			return true
		}
	}
	return false
}

// TestIndexMembersMatchForwardSets cross-checks the reverse index against
// the forward representation on a dense topology: every channel's member
// list is node-ascending, memberships total n·c, Degree sums match, and
// Contains agrees with a direct set scan for every (node, channel) pair.
func TestIndexMembersMatchForwardSets(t *testing.T) {
	asn, err := SharedCore(50, 8, 3, 32, LocalLabels, 7)
	if err != nil {
		t.Fatal(err)
	}
	idx := asn.Index()
	if !idx.HasBitsets() {
		t.Error("shared-core C=32, c=8 should carry bitsets")
	}
	if got, want := idx.Memberships(), 50*8; got != want {
		t.Fatalf("Memberships() = %d, want %d", got, want)
	}
	degreeSum := 0
	for ch := 0; ch < asn.Channels(); ch++ {
		ms := idx.Members(ch)
		degreeSum += idx.Degree(ch)
		for i, m := range ms {
			if i > 0 && ms[i-1] >= m {
				t.Fatalf("channel %d members not strictly ascending: %v", ch, ms)
			}
			if !bruteContains(asn, sim.NodeID(m), ch) {
				t.Fatalf("index lists node %d on channel %d but its set lacks it", m, ch)
			}
		}
	}
	if degreeSum != idx.Memberships() {
		t.Errorf("sum of degrees %d != memberships %d", degreeSum, idx.Memberships())
	}
	for u := 0; u < asn.Nodes(); u++ {
		for ch := -1; ch <= asn.Channels(); ch++ {
			if got, want := idx.Contains(sim.NodeID(u), ch), bruteContains(asn, sim.NodeID(u), ch); got != want {
				t.Fatalf("Contains(%d, %d) = %v, want %v", u, ch, got, want)
			}
		}
	}
	if idx.Contains(-1, 0) || idx.Contains(sim.NodeID(asn.Nodes()), 0) {
		t.Error("Contains accepted an out-of-range node")
	}
	if idx.Members(-1) != nil || idx.Members(asn.Channels()+10) != nil {
		t.Error("Members returned nodes for an out-of-range channel")
	}
}

// TestIndexBitsetElision pins the density heuristic on both sides: a
// shared-core spectrum keeps bitsets, a large partitioned spectrum
// (C = k + n·(c−k) ≫ 128·c) elides them, and on the elided side Contains
// (binary search) still agrees with the forward sets.
func TestIndexBitsetElision(t *testing.T) {
	dense, err := SharedCore(64, 6, 2, 24, LocalLabels, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Index().HasBitsets() {
		t.Error("dense spectrum lost its bitsets")
	}
	sparse, err := Partitioned(256, 6, 2, LocalLabels, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx := sparse.Index()
	if idx.HasBitsets() {
		t.Errorf("partitioned C=%d should elide bitsets", sparse.Channels())
	}
	for u := 0; u < sparse.Nodes(); u++ {
		for _, ch := range sparse.ChannelSet(sim.NodeID(u), 0) {
			if !idx.Contains(sim.NodeID(u), ch) {
				t.Fatalf("binary-search Contains(%d, %d) = false for a held channel", u, ch)
			}
		}
		// A private channel of the next node is never shared.
		v := (u + 1) % sparse.Nodes()
		for _, ch := range sparse.ChannelSet(sim.NodeID(v), 0) {
			if got, want := idx.Contains(sim.NodeID(u), ch), bruteContains(sparse, sim.NodeID(u), ch); got != want {
				t.Fatalf("Contains(%d, %d) = %v, want %v", u, ch, got, want)
			}
		}
	}
}

// TestIndexMemoryBytes checks the reported footprint against the layout:
// (C+1) offsets and n·c members at 4 bytes, plus n·words bitset words at 8
// when present.
func TestIndexMemoryBytes(t *testing.T) {
	asn, err := SharedCore(40, 8, 3, 32, LocalLabels, 5)
	if err != nil {
		t.Fatal(err)
	}
	idx := asn.Index()
	words := (asn.Channels() + 63) / 64
	want := int64(asn.Channels()+1)*4 + int64(40*8)*4
	if idx.HasBitsets() {
		want += int64(40*words) * 8
	}
	if got := idx.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes() = %d, want %d", got, want)
	}

	sparse, err := Partitioned(256, 6, 2, LocalLabels, 5)
	if err != nil {
		t.Fatal(err)
	}
	sidx := sparse.Index()
	swant := int64(sparse.Channels()+1)*4 + int64(256*6)*4
	if got := sidx.MemoryBytes(); got != swant {
		t.Errorf("sparse MemoryBytes() = %d, want %d (no bitset term)", got, swant)
	}
}

// TestIndexInvalidatedByRebuild regenerates a Builder's assignment in place
// and requires the cached index to be dropped: the rebuilt Static's index
// must match a freshly constructed assignment with the new seed, not the old
// sets.
func TestIndexInvalidatedByRebuild(t *testing.T) {
	var b Builder
	first, err := b.SharedCore(32, 6, 2, 24, LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	firstIdx := first.Index()

	rebuilt, err := b.SharedCore(32, 6, 2, 24, LocalLabels, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == first && rebuilt.Index() == firstIdx {
		t.Fatal("builder rebuild kept the previous cached index")
	}
	fresh, err := SharedCore(32, 6, 2, 24, LocalLabels, 2)
	if err != nil {
		t.Fatal(err)
	}
	fidx, ridx := fresh.Index(), rebuilt.Index()
	if fidx.Memberships() != ridx.Memberships() {
		t.Fatalf("rebuilt memberships %d != fresh %d", ridx.Memberships(), fidx.Memberships())
	}
	for ch := 0; ch < fresh.Channels(); ch++ {
		f, r := fidx.Members(ch), ridx.Members(ch)
		if len(f) != len(r) {
			t.Fatalf("channel %d: rebuilt degree %d != fresh %d", ch, len(r), len(f))
		}
		for i := range f {
			if f[i] != r[i] {
				t.Fatalf("channel %d member %d: rebuilt %d != fresh %d", ch, i, r[i], f[i])
			}
		}
	}
}

// TestOverlapMatchesBruteForce checks the index-answered Overlap against a
// direct double scan of the forward sets, on both the bitset and the
// binary-search path, and against the construction's k guarantee.
func TestOverlapMatchesBruteForce(t *testing.T) {
	brute := func(s *Static, u, v sim.NodeID) int {
		n := 0
		for _, ch := range s.ChannelSet(u, 0) {
			if bruteContains(s, v, ch) {
				n++
			}
		}
		return n
	}
	dense, err := SharedCore(48, 8, 3, 32, LocalLabels, 9)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := Partitioned(256, 6, 2, LocalLabels, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Static{dense, sparse} {
		n := s.Nodes()
		for u := 0; u < n; u++ {
			v := (u*7 + 3) % n
			if u == v {
				continue
			}
			got := s.Overlap(sim.NodeID(u), sim.NodeID(v))
			want := brute(s, sim.NodeID(u), sim.NodeID(v))
			if got != want {
				t.Fatalf("Overlap(%d, %d) = %d, want %d (bitsets=%v)", u, v, got, want, s.Index().HasBitsets())
			}
			if got < s.MinOverlap() {
				t.Fatalf("Overlap(%d, %d) = %d below guaranteed k=%d", u, v, got, s.MinOverlap())
			}
		}
	}
}

// TestIndexRebuiltIntoSpare pins the index's reuse: a warm Builder's
// rebuild and Index allocate only the index header and its fill cursor,
// and a reused index matches a fresh one through a change of shape, from
// a topology with bitsets to one without and back.
func TestIndexRebuiltIntoSpare(t *testing.T) {
	var b Builder
	build := func(partitioned bool, seed int64) (*Static, *Static) {
		t.Helper()
		if partitioned {
			got, err := b.Partitioned(200, 6, 2, LocalLabels, seed)
			want, err2 := Partitioned(200, 6, 2, LocalLabels, seed)
			if err != nil || err2 != nil {
				t.Fatal(err, err2)
			}
			return got, want
		}
		got, err := b.SharedCore(200, 6, 2, 24, LocalLabels, seed)
		want, err2 := SharedCore(200, 6, 2, 24, LocalLabels, seed)
		if err != nil || err2 != nil {
			t.Fatal(err, err2)
		}
		return got, want
	}
	for i, partitioned := range []bool{false, false, true, false} {
		got, want := build(partitioned, int64(i+1))
		gi, wi := got.Index(), want.Index()
		if gi.HasBitsets() == partitioned {
			t.Fatalf("build %d: bitsets %v on a partitioned=%v topology", i, gi.HasBitsets(), partitioned)
		}
		if gi.MemoryBytes() != wi.MemoryBytes() || gi.HasBitsets() != wi.HasBitsets() {
			t.Fatalf("build %d: index of %d B (bitsets %v), fresh %d B (%v)", i, gi.MemoryBytes(), gi.HasBitsets(), wi.MemoryBytes(), wi.HasBitsets())
		}
		for ch := 0; ch < want.Channels(); ch++ {
			for u := sim.NodeID(0); u < 200; u++ {
				if gi.Contains(u, ch) != wi.Contains(u, ch) {
					t.Fatalf("build %d: Contains(%d, %d) = %v, fresh %v", i, u, ch, gi.Contains(u, ch), wi.Contains(u, ch))
				}
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := b.SharedCore(200, 6, 2, 24, LocalLabels, 9); err != nil {
			t.Fatal(err)
		}
		b.s.Index()
	})
	if allocs != 2 {
		t.Errorf("warm rebuild and Index allocated %.1f times per run, want 2", allocs)
	}
}
