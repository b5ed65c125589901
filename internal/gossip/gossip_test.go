package gossip

import (
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/sim"
)

// has reports whether the set holds rumor r; production code only counts
// and merges sets.
func (s rumorSet) has(r Rumor) bool { return s[r/64]&(1<<(uint(r)%64)) != 0 }

func TestRumorSetOps(t *testing.T) {
	s := newRumorSet(130)
	if s.count() != 0 {
		t.Error("fresh set not empty")
	}
	s = s.with(0).with(64).with(129)
	if s.count() != 3 {
		t.Errorf("count = %d, want 3", s.count())
	}
	for _, r := range []Rumor{0, 64, 129} {
		if !s.has(r) {
			t.Errorf("missing rumor %d", r)
		}
	}
	if s.has(1) || s.has(128) {
		t.Error("phantom rumor present")
	}
	other := newRumorSet(130).with(5)
	merged := s.withAll(other)
	if merged.count() != 4 || !merged.has(5) {
		t.Errorf("merge failed: %d rumors", merged.count())
	}
	// Originals untouched (messages share sets; mutation would corrupt
	// in-flight messages).
	if s.count() != 3 || other.count() != 1 {
		t.Error("merge mutated its inputs")
	}
}

func TestGossipSingleSourceMatchesCogcastSemantics(t *testing.T) {
	asn, err := assign.FullOverlap(32, 4, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(asn, []sim.NodeID{0}, 1, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("single-rumor gossip incomplete after %d slots", res.Slots)
	}
}

func TestGossipAllRumorsReachEveryone(t *testing.T) {
	const n = 40
	asn, err := assign.SharedCore(n, 8, 2, 24, assign.LocalLabels, 2)
	if err != nil {
		t.Fatal(err)
	}
	sources := []sim.NodeID{0, 7, 13, 21, 39}
	res, err := Run(asn, sources, 2, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("gossip incomplete: min known %d of %d after %d slots", res.MinKnown, len(sources), res.Slots)
	}
	if res.MinKnown != len(sources) {
		t.Errorf("MinKnown = %d, want %d", res.MinKnown, len(sources))
	}
}

func TestGossipDuplicateSources(t *testing.T) {
	// One node may hold several rumors from the start.
	asn, err := assign.FullOverlap(16, 4, assign.LocalLabels, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(asn, []sim.NodeID{5, 5, 5}, 3, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("gossip with co-located rumors incomplete")
	}
}

func TestGossipValidation(t *testing.T) {
	asn, err := assign.FullOverlap(4, 2, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(asn, nil, 1, 10); err == nil {
		t.Error("no sources accepted")
	}
	if _, err := Run(asn, []sim.NodeID{9}, 1, 10); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestGossipBudgetRespected(t *testing.T) {
	asn, err := assign.Partitioned(32, 16, 1, assign.LocalLabels, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(asn, []sim.NodeID{0}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots > 2 {
		t.Errorf("ran %d slots past a 2-slot budget", res.Slots)
	}
}

func TestGossipWorksOverDynamicAssignment(t *testing.T) {
	asn, err := assign.NewDynamic(24, 6, 2, 18, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(asn, []sim.NodeID{0, 12}, 5, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("gossip over dynamic assignment incomplete after %d slots", res.Slots)
	}
}

func TestCollidingSendersStillMerge(t *testing.T) {
	// Two sources on a single channel: the slot-1 collision delivers one
	// set to the loser, who merges — so after one slot at least one node
	// holds both rumors.
	asn, err := assign.FullOverlap(2, 1, assign.LocalLabels, 6)
	if err != nil {
		t.Fatal(err)
	}
	a := NewNode(sim.View(asn, 0), []Rumor{0}, 2, 6)
	b := NewNode(sim.View(asn, 1), []Rumor{1}, 2, 6)
	eng, err := sim.NewEngine(asn, []sim.Protocol{a, b}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSlot(); err != nil {
		t.Fatal(err)
	}
	if a.Count()+b.Count() != 3 {
		t.Errorf("after one colliding slot counts are %d and %d; the loser should have merged the winner's set", a.Count(), b.Count())
	}
}
