package invariant_test

import (
	"slices"
	"strings"
	"testing"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// fakeAsn is a hand-built assignment for feeding the checker synthetic
// slots without going through package assign.
type fakeAsn struct {
	n, total, c, k int
	sets           [][]int
}

func (f *fakeAsn) Nodes() int                           { return f.n }
func (f *fakeAsn) Channels() int                        { return f.total }
func (f *fakeAsn) PerNode() int                         { return f.c }
func (f *fakeAsn) MinOverlap() int                      { return f.k }
func (f *fakeAsn) ChannelSet(u sim.NodeID, _ int) []int { return f.sets[u] }

// fixedAsn is a fakeAsn that declares its sets fixed, so the checker
// copies them into its membership table instead of scanning ChannelSet.
type fixedAsn struct{ *fakeAsn }

func (fixedAsn) FixedChannelSets() bool { return true }

// fullAsn is a 4-node, 4-channel full-overlap fake.
func fullAsn() *fakeAsn {
	sets := [][]int{{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}}
	return &fakeAsn{n: 4, total: 4, c: 4, k: 4, sets: sets}
}

func out(ch int, winner sim.NodeID, bs, ls []sim.NodeID) sim.ChannelOutcome {
	return sim.ChannelOutcome{Channel: ch, Winner: winner, Broadcasters: bs, Listeners: ls}
}

func ids(vs ...int) []sim.NodeID {
	out := make([]sim.NodeID, len(vs))
	for i, v := range vs {
		out[i] = sim.NodeID(v)
	}
	return out
}

func TestCheckerCleanSlots(t *testing.T) {
	var c invariant.Checker
	c.Reset(fullAsn(), sim.UniformWinner)
	c.OnSlot(0, []sim.ChannelOutcome{
		out(0, 1, ids(1, 2), ids(3)),
		out(2, sim.None, nil, ids(0)),
	})
	c.OnSlot(1, []sim.ChannelOutcome{
		out(1, 0, ids(0), ids(1, 2, 3)),
	})
	c.OnSlot(2, nil)
	if err := c.Err(); err != nil {
		t.Fatalf("clean slots flagged: %v", err)
	}
	if c.Violations() != 0 {
		t.Errorf("violations = %d, want 0", c.Violations())
	}
	if c.Tallied() != 1 {
		t.Errorf("tallied %d contended channels, want 1", c.Tallied())
	}
}

func TestCheckerViolations(t *testing.T) {
	restricted := fullAsn()
	restricted.sets[3] = []int{1, 2, 3} // node 3 does not hold channel 0
	cases := []struct {
		name string
		asn  sim.Assignment
		feed func(c *invariant.Checker)
		want string
	}{
		{"winner outside broadcasters", fullAsn(), func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{out(0, 3, ids(1, 2), nil)})
		}, "not among"},
		{"winner with no broadcasters", fullAsn(), func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{out(0, 1, nil, ids(1))})
		}, "no broadcasters"},
		{"node on two channels", fullAsn(), func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{
				out(0, 1, ids(1), nil),
				out(1, sim.None, nil, ids(1)),
			})
		}, "two channels"},
		{"channel out of range", fullAsn(), func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{out(7, 1, ids(1), nil)})
		}, "outside"},
		{"channels out of order", fullAsn(), func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{
				out(2, 1, ids(1), nil),
				out(0, 2, ids(2), nil),
			})
		}, "ascending"},
		{"participants out of order", fullAsn(), func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{out(0, 2, ids(2, 1), nil)})
		}, "ascending"},
		{"participant outside node range", fullAsn(), func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{out(0, 9, ids(9), nil)})
		}, "outside"},
		{"channel outside node's set", restricted, func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{out(0, 3, ids(3), nil)})
		}, "outside its"},
		{"channel outside node's fixed set", fixedAsn{restricted}, func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{out(0, 3, ids(3), nil)})
		}, "slot 0: node 3 used physical channel 0 outside its 3-channel set"},
		{"empty channel report", fullAsn(), func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{out(0, sim.None, nil, nil)})
		}, "no participants"},
		{"skipped slot", fullAsn(), func(c *invariant.Checker) {
			c.OnSlot(0, nil)
			c.OnSlot(2, nil)
		}, "consecutive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c invariant.Checker
			c.Reset(tc.asn, sim.UniformWinner)
			tc.feed(&c)
			err := c.Err()
			if err == nil {
				t.Fatal("violation not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if c.Violations() == 0 {
				t.Error("violation count is zero")
			}
		})
	}
}

func TestCheckerAllDelivered(t *testing.T) {
	var c invariant.Checker
	c.Reset(fullAsn(), sim.AllDelivered)
	c.OnSlot(0, []sim.ChannelOutcome{out(0, 1, ids(1, 2), nil)})
	if err := c.Err(); err != nil {
		t.Fatalf("first-broadcaster winner flagged: %v", err)
	}
	c.OnSlot(1, []sim.ChannelOutcome{out(0, 2, ids(1, 2), nil)})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "first broadcaster") {
		t.Errorf("non-first all-delivered winner not flagged: %v", err)
	}
	if c.Tallied() != 0 {
		t.Errorf("all-delivered slots tallied for uniformity: %d", c.Tallied())
	}
}

func TestCheckerReset(t *testing.T) {
	var c invariant.Checker
	c.Reset(fullAsn(), sim.UniformWinner)
	c.OnSlot(0, []sim.ChannelOutcome{out(0, 3, ids(1, 2), nil)}) // violation
	if c.Err() == nil {
		t.Fatal("violation not recorded")
	}
	c.Reset(fullAsn(), sim.UniformWinner)
	if c.Err() != nil || c.Violations() != 0 {
		t.Error("Reset did not clear violation state")
	}
	c.OnSlot(0, nil) // slot cursor must restart
	if c.Err() != nil {
		t.Errorf("slot cursor not reset: %v", c.Err())
	}
}

// TestCheckerResetAfterRebuild rebuilds an assignment in place between two
// runs, as arenas do with assign.Builder: the Static keeps its pointer and
// its shape, but the second run must be checked against the new sets.
func TestCheckerResetAfterRebuild(t *testing.T) {
	const n = 40
	var b assign.Builder
	first, err := b.SharedCore(n, 6, 2, 30, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	old := make([][]int, n)
	for u := range old {
		old[u] = slices.Clone(first.ChannelSet(sim.NodeID(u), 0))
	}
	var c invariant.Checker
	c.Reset(first, sim.UniformWinner)
	second, err := b.SharedCore(n, 6, 2, 30, assign.LocalLabels, 2)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("the builder did not rebuild its Static in place")
	}
	c.Reset(second, sim.UniformWinner)
	gained, lost, slot := 0, 0, 0
	for u := sim.NodeID(0); u < n; u++ {
		now := second.ChannelSet(u, 0)
		for ch := 0; ch < second.Channels(); ch++ {
			was, is := slices.Contains(old[u], ch), slices.Contains(now, ch)
			if was == is {
				continue
			}
			before := c.Violations()
			c.OnSlot(slot, []sim.ChannelOutcome{out(ch, sim.None, nil, ids(int(u)))})
			slot++
			flagged := c.Violations() > before
			if is {
				gained++
			} else {
				lost++
			}
			if flagged == is {
				t.Errorf("node %d listening on channel %d (in its rebuilt set: %v): flagged = %v", u, ch, is, flagged)
			}
		}
	}
	if gained == 0 || lost == 0 {
		t.Fatalf("rebuild moved no channel (gained %d, lost %d): the test checks nothing", gained, lost)
	}
}

func TestCheckerUniformity(t *testing.T) {
	// Evenly alternating winner positions over 2-way contention: chi2 ~ 0.
	var fair invariant.Checker
	fair.Reset(fullAsn(), sim.UniformWinner)
	for s := 0; s < 400; s++ {
		w := sim.NodeID(s % 2)
		fair.OnSlot(s, []sim.ChannelOutcome{out(0, w, ids(0, 1), nil)})
	}
	if err := fair.Err(); err != nil {
		t.Fatalf("fair stream flagged: %v", err)
	}
	if err := fair.Uniformity(1e-6); err != nil {
		t.Errorf("fair winners rejected: %v", err)
	}

	// The same node always wins: grossly non-uniform.
	var biased invariant.Checker
	biased.Reset(fullAsn(), sim.UniformWinner)
	for s := 0; s < 400; s++ {
		biased.OnSlot(s, []sim.ChannelOutcome{out(0, 0, ids(0, 1), nil)})
	}
	if err := biased.Uniformity(1e-6); err == nil {
		t.Error("always-first winner accepted as uniform")
	}

	// Too little data: no verdict.
	var sparse invariant.Checker
	sparse.Reset(fullAsn(), sim.UniformWinner)
	sparse.OnSlot(0, []sim.ChannelOutcome{out(0, 0, ids(0, 1), nil)})
	if err := sparse.Uniformity(1e-6); err != nil {
		t.Errorf("sparse tallies produced a verdict: %v", err)
	}
}

func TestCheckAssignmentAccepts(t *testing.T) {
	builders := []struct {
		name string
		make func() (sim.Assignment, error)
	}{
		{"full-overlap", func() (sim.Assignment, error) { return assign.FullOverlap(8, 4, assign.LocalLabels, 1) }},
		{"partitioned", func() (sim.Assignment, error) { return assign.Partitioned(12, 6, 2, assign.LocalLabels, 2) }},
		{"shared-core", func() (sim.Assignment, error) { return assign.SharedCore(10, 5, 2, 16, assign.LocalLabels, 3) }},
		{"pairwise-dedicated", func() (sim.Assignment, error) { return assign.PairwiseDedicated(5, 8, 2, assign.LocalLabels, 4) }},
		{"dynamic", func() (sim.Assignment, error) { return assign.NewDynamic(8, 4, 2, 12, 5) }},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			asn, err := b.make()
			if err != nil {
				t.Fatal(err)
			}
			if err := invariant.CheckAssignment(asn, 0); err != nil {
				t.Errorf("valid assignment rejected: %v", err)
			}
		})
	}
}

// TestCheckAssignmentRejects feeds CheckAssignment broken assignments. The
// rows marked both run twice: as given, over a few channels that the
// membership table keeps in bitmap rows, and over wideTotal channels that
// it keeps in hash rows, so duplicate detection and the pair sweep are
// checked under either layout.
func TestCheckAssignmentRejects(t *testing.T) {
	const wideTotal = 2048 // 32 words, wider than any hash row for c <= 8
	cases := []struct {
		name string
		asn  *fakeAsn
		want string
		both bool
	}{
		{"duplicate channel", &fakeAsn{n: 2, total: 4, c: 3, k: 1,
			sets: [][]int{{0, 1, 1}, {0, 1, 2}}}, "twice", true},
		{"channel out of range", &fakeAsn{n: 2, total: 4, c: 2, k: 1,
			sets: [][]int{{0, 7}, {0, 1}}}, "outside", false},
		{"overlap below k", &fakeAsn{n: 2, total: 4, c: 2, k: 2,
			sets: [][]int{{0, 1}, {1, 2}}}, "below k", true},
		{"overlap count", &fakeAsn{n: 3, total: 6, c: 3, k: 3,
			sets: [][]int{{0, 1, 2}, {0, 1, 2}, {2, 5, 1}}}, "nodes 0 and 2 overlap on 2 channels, below k=3 (slot 0)", true},
		{"first repeat in set order", &fakeAsn{n: 2, total: 6, c: 5, k: 1,
			sets: [][]int{{0, 1, 2}, {4, 1, 3, 1, 4}}}, "node 1 holds channel 1 twice", true},
		{"oversized set", &fakeAsn{n: 2, total: 4, c: 2, k: 1,
			sets: [][]int{{0, 1, 2}, {0, 1}}}, "more than c", false},
		{"empty set", &fakeAsn{n: 2, total: 4, c: 2, k: 1,
			sets: [][]int{{}, {0, 1}}}, "empty", false},
		{"bad k", &fakeAsn{n: 2, total: 4, c: 2, k: 3,
			sets: [][]int{{0, 1}, {0, 1}}}, "1 <= k <= c", false},
	}
	rejects := func(t *testing.T, asn *fakeAsn, want string) {
		t.Helper()
		err := invariant.CheckAssignment(asn, 0)
		if err == nil {
			t.Fatal("invalid assignment accepted")
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.both {
				rejects(t, tc.asn, tc.want)
				return
			}
			wide := *tc.asn
			wide.total = wideTotal
			for _, asn := range []*fakeAsn{tc.asn, &wide} {
				bitmap, name := invariant.BitmapRows(asn), "hash rows"
				if bitmap {
					name = "bitmap rows"
				}
				if bitmap != (asn == tc.asn) {
					t.Fatalf("C = %d, c = %d: %s, want the other layout", asn.total, asn.c, name)
				}
				t.Run(name, func(t *testing.T) { rejects(t, asn, tc.want) })
			}
		})
	}
}

func TestCheckBroadcastTree(t *testing.T) {
	// A valid 5-node tree: 0 informs 1 (slot 2) and 2 (slot 3); 2 informs 3
	// (slot 5); node 4 never informed.
	parents := []sim.NodeID{sim.None, 0, 0, 2, sim.None}
	slots := []int{-1, 2, 3, 5, -1}
	if err := invariant.CheckBroadcastTree(5, 0, parents, slots, false); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}

	mut := func(fn func(p []sim.NodeID, s []int) bool) error {
		p := append([]sim.NodeID(nil), parents...)
		s := append([]int(nil), slots...)
		all := fn(p, s)
		return invariant.CheckBroadcastTree(5, 0, p, s, all)
	}
	cases := []struct {
		name string
		fn   func(p []sim.NodeID, s []int) bool
	}{
		{"completion flag wrong", func(p []sim.NodeID, s []int) bool { return true }},
		{"source has parent", func(p []sim.NodeID, s []int) bool { p[0] = 1; return false }},
		{"self parent", func(p []sim.NodeID, s []int) bool { p[3] = 3; return false }},
		{"parent out of range", func(p []sim.NodeID, s []int) bool { p[3] = 9; return false }},
		{"cycle", func(p []sim.NodeID, s []int) bool { p[2] = 3; return false }},
		{"uninformed parent", func(p []sim.NodeID, s []int) bool { p[3] = 4; return false }},
		{"parent informed later", func(p []sim.NodeID, s []int) bool { s[3] = 1; return false }},
		{"parent without slot", func(p []sim.NodeID, s []int) bool { s[1] = -1; return false }},
		{"slot without parent", func(p []sim.NodeID, s []int) bool { p[1] = sim.None; return false }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := mut(tc.fn); err == nil {
				t.Error("malformed tree accepted")
			}
		})
	}

	// Small whole trees rooted at node 0, each with slots that agree with
	// its parent pointers, so the one fault left is the one named.
	whole := []struct {
		name    string
		parents []sim.NodeID
		slots   []int
		want    string
	}{
		{"chain hanging off unreached node", []sim.NodeID{sim.None, sim.None, 1}, []int{-1, -1, 4}, "uninformed node 1"},
		{"root with parent", []sim.NodeID{1, sim.None}, []int{-1, -1}, "has parent 1"},
		{"self loop", []sim.NodeID{sim.None, 1}, []int{-1, 2}, "its own parent"},
	}
	for _, tc := range whole {
		t.Run(tc.name, func(t *testing.T) {
			err := invariant.CheckBroadcastTree(len(tc.parents), 0, tc.parents, tc.slots, false)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("CheckBroadcastTree = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

func TestCheckCensus(t *testing.T) {
	cases := []struct {
		name                             string
		n, channels, informed, mediators int
		complete                         bool
		ok                               bool
	}{
		{"complete run", 8, 4, 8, 3, true, true},
		{"partial run", 8, 4, 5, 2, false, true},
		{"source only", 8, 4, 1, 0, false, true},
		{"single node", 1, 4, 1, 0, true, true},
		{"informed over n", 8, 4, 9, 3, false, false},
		{"flag mismatch", 8, 4, 8, 3, false, false},
		{"no mediator", 8, 4, 5, 0, false, false},
		{"mediators over channels", 8, 2, 8, 3, true, false},
		{"mediators over informed", 8, 16, 3, 3, false, false},
		{"mediator with lone source", 8, 4, 1, 1, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := invariant.CheckCensus(tc.n, tc.channels, tc.informed, tc.mediators, tc.complete)
			if (err == nil) != tc.ok {
				t.Errorf("CheckCensus = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestAggEqual(t *testing.T) {
	if !invariant.AggEqual(int64(7), int64(7)) || invariant.AggEqual(int64(7), int64(8)) {
		t.Error("int64 comparison wrong")
	}
	sv := aggfunc.StatsValue{Count: 2, Sum: 5, Min: 1, Max: 4}
	if !invariant.AggEqual(sv, sv) || invariant.AggEqual(sv, aggfunc.StatsValue{Count: 2}) {
		t.Error("stats comparison wrong")
	}
	a := []aggfunc.Entry{{ID: 2, Input: 20}, {ID: 0, Input: 5}, {ID: 1, Input: -3}}
	b := []aggfunc.Entry{{ID: 0, Input: 5}, {ID: 1, Input: -3}, {ID: 2, Input: 20}}
	if !invariant.AggEqual(a, b) {
		t.Error("permuted collect values unequal")
	}
	c := []aggfunc.Entry{{ID: 0, Input: 5}, {ID: 1, Input: -3}, {ID: 2, Input: 21}}
	if invariant.AggEqual(a, c) {
		t.Error("differing collect values equal")
	}
	if invariant.AggEqual(int64(7), a) || invariant.AggEqual(a, int64(7)) {
		t.Error("mixed types equal")
	}
}

func TestStreamValid(t *testing.T) {
	s := invariant.NewStream(nil)
	s.Emit(trace.TrialEvent(0, 42))
	s.Emit(trace.ProgressEvent(-1, 1, 4))
	s.Emit(trace.ChannelEvent(0, 1, 2, 2, 1))
	s.Emit(trace.ChannelEvent(0, 3, -1, 0, 2))
	s.Emit(trace.SlotEvent(0, 2))
	s.Emit(trace.InformedEvent(0, 3, 2, 1))
	s.Emit(trace.ProgressEvent(0, 2, 4))
	s.Emit(trace.SlotEvent(1, 0))
	s.Emit(trace.PhaseEvent(1, 1, 8))
	s.Emit(trace.PhaseEvent(9, 2, 4))
	s.Emit(trace.CensusEvent(20, 4, 2))
	s.Emit(trace.FaultEvent(5, 1, true))
	s.Emit(trace.JamEvent(5, 3, 2))
	if err := s.Err(); err != nil {
		t.Fatalf("valid stream flagged: %v", err)
	}
	// A trial boundary resets the cursors: restarting slots is legal.
	s.Emit(trace.TrialEvent(1, 43))
	s.Emit(trace.SlotEvent(0, 0))
	s.Emit(trace.ProgressEvent(0, 1, 4))
	if err := s.Err(); err != nil {
		t.Fatalf("trial restart flagged: %v", err)
	}
}

func TestStreamViolations(t *testing.T) {
	cases := []struct {
		name string
		feed func(s *invariant.Stream)
		want string
	}{
		{"active count mismatch", func(s *invariant.Stream) {
			s.Emit(trace.ChannelEvent(0, 0, 1, 1, 0))
			s.Emit(trace.SlotEvent(0, 2))
		}, "active"},
		{"slot regression", func(s *invariant.Stream) {
			s.Emit(trace.SlotEvent(3, 0))
			s.Emit(trace.SlotEvent(3, 0))
		}, "marker"},
		{"channel group crosses slots", func(s *invariant.Stream) {
			s.Emit(trace.ChannelEvent(0, 0, 1, 1, 0))
			s.Emit(trace.ChannelEvent(1, 0, 1, 1, 0))
		}, "amid"},
		{"winner without broadcasters", func(s *invariant.Stream) {
			s.Emit(trace.ChannelEvent(0, 0, 2, 0, 1))
		}, "winner"},
		{"progress regression", func(s *invariant.Stream) {
			s.Emit(trace.ProgressEvent(0, 3, 4))
			s.Emit(trace.ProgressEvent(1, 2, 4))
		}, "fell"},
		{"progress above total", func(s *invariant.Stream) {
			s.Emit(trace.ProgressEvent(0, 5, 4))
		}, "progress"},
		{"phase regression", func(s *invariant.Stream) {
			s.Emit(trace.PhaseEvent(0, 2, 4))
			s.Emit(trace.PhaseEvent(4, 1, 4))
		}, "phase"},
		{"census mediators", func(s *invariant.Stream) {
			s.Emit(trace.CensusEvent(10, 3, 3))
		}, "census"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := invariant.NewStream(nil)
			tc.feed(s)
			err := s.Err()
			if err == nil {
				t.Fatal("violation not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestStreamForwarding pins the passthrough contract: every event reaches
// the wrapped sink exactly once, violations or not.
func TestStreamForwarding(t *testing.T) {
	ring := trace.NewRing(16)
	s := invariant.NewStream(ring)
	s.Emit(trace.SlotEvent(0, 0))
	s.Emit(trace.SlotEvent(0, 0)) // violation, still forwarded
	if got := len(ring.Events()); got != 2 {
		t.Errorf("forwarded %d events, want 2", got)
	}
	if s.Violations() != 1 {
		t.Errorf("violations = %d, want 1", s.Violations())
	}
}

// parked is an outcome whose only listeners are the parked ids pk.
func parked(ch int, pk ...int) sim.ChannelOutcome {
	return sim.ChannelOutcome{Channel: ch, Winner: sim.None, Parked: ids(pk...)}
}

// outsideSet returns a physical channel of asn that node u does not hold.
func outsideSet(t *testing.T, asn sim.Assignment, u sim.NodeID) int {
	t.Helper()
	for ch := 0; ch < asn.Channels(); ch++ {
		if !slices.Contains(asn.ChannelSet(u, 0), ch) {
			return ch
		}
	}
	t.Fatalf("node %d holds every channel", u)
	return -1
}

// TestCheckerParks feeds hand-built streams of parked listeners to a
// checker over static assignments. A park is checked when it starts, so
// every fault must be caught whether it shows in the park's first slot or
// in a later one, when the channel's parked list is unchanged.
func TestCheckerParks(t *testing.T) {
	full, err := assign.FullOverlap(4, 3, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := assign.Partitioned(4, 2, 1, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := assign.NewDynamic(4, 2, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	violations := []struct {
		name string
		asn  sim.Assignment
		feed func(c *invariant.Checker)
		want string
	}{
		{"parked on two channels", full, func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{parked(0, 1), parked(2, 1)})
		}, "while parked on channel 0"},
		{"parked on a second channel later", full, func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{parked(2, 1)})
			c.OnSlot(1, []sim.ChannelOutcome{parked(0, 1), parked(2, 1)})
		}, "while parked on channel"},
		{"stepped while parked, first slot", full, func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{parked(0, 1), out(1, sim.None, nil, ids(1))})
		}, "stepped on channel 1 while parked on channel 0"},
		{"stepped while parked, later slot", full, func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{parked(2, 1)})
			c.OnSlot(1, []sim.ChannelOutcome{out(0, 1, ids(1), nil), parked(2, 1)})
		}, "stepped on channel 0 while parked on channel 2"},
		{"stepped and parked on one channel", full, func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{{Channel: 0, Winner: sim.None, Listeners: ids(1), Parked: ids(1)}})
		}, "while parked"},
		{"parked list out of order", full, func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{parked(0, 2, 1)})
		}, "ascending"},
		{"parked id out of range", full, func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{parked(0, 9)})
		}, "parked listener 9 outside"},
		{"arrival outside its set", part, func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{parked(outsideSet(t, part, 1), 1)})
		}, "outside its"},
		{"parked under a dynamic assignment", dyn, func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{parked(0, 1)})
		}, "not fixed"},
	}
	for _, tc := range violations {
		t.Run(tc.name, func(t *testing.T) {
			var c invariant.Checker
			c.Reset(tc.asn, sim.UniformWinner)
			tc.feed(&c)
			err := c.Err()
			if err == nil {
				t.Fatal("violation not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	clean := []struct {
		name string
		feed func(c *invariant.Checker)
	}{
		// Node 1 leaves channel 2 for channel 0 in slot 1: the arrival is
		// reported before the departure, on a lower channel.
		{"departure and arrival in one slot", func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{parked(2, 1, 2)})
			c.OnSlot(1, []sim.ChannelOutcome{parked(0, 1), parked(2, 2)})
			c.OnSlot(2, []sim.ChannelOutcome{out(0, 2, ids(2), nil), parked(2, 1)})
		}},
		// Channel 2 drops out of the report in slot 1: its parks ended, so
		// its former listeners may step or park elsewhere.
		{"channel drops out of the report", func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{parked(2, 1, 3)})
			c.OnSlot(1, []sim.ChannelOutcome{out(1, 1, ids(1), ids(3))})
			c.OnSlot(2, []sim.ChannelOutcome{parked(0, 3), parked(2, 1)})
		}},
		// A parked list that empties while its channel stays reported.
		{"list empties on a reported channel", func(c *invariant.Checker) {
			c.OnSlot(0, []sim.ChannelOutcome{parked(1, 0, 2)})
			c.OnSlot(1, []sim.ChannelOutcome{out(1, 0, ids(0), ids(2))})
		}},
	}
	for _, tc := range clean {
		t.Run(tc.name, func(t *testing.T) {
			var c invariant.Checker
			c.Reset(full, sim.UniformWinner)
			tc.feed(&c)
			if err := c.Err(); err != nil {
				t.Fatalf("clean stream flagged: %v", err)
			}
			// The parks must not leak into a fresh run either.
			c.Reset(full, sim.UniformWinner)
			c.OnSlot(0, []sim.ChannelOutcome{out(0, 1, ids(1, 2, 3), ids(0))})
			if err := c.Err(); err != nil {
				t.Fatalf("parks survived Reset: %v", err)
			}
		})
	}
}

// TestCheckerParkRewrittenInPlace feeds a checker the same Parked backing
// array in consecutive slots and rewrites one id in it between two of
// them, so the list keeps its length and its slice header. The checker
// must see the change through its own copy of the list, whether the new id
// lacks the channel or is parked on another one.
func TestCheckerParkRewrittenInPlace(t *testing.T) {
	cases := []struct {
		name   string
		sets   [][]int
		others []sim.ChannelOutcome // reported beside channel 0 in every slot
		want   string
	}{
		{"to a node outside its set", [][]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}}, nil,
			"node 2 parked on physical channel 0 outside its 2-channel set"},
		{"to a node parked on another channel", [][]int{{0, 1}, {0, 2}, {0, 3}, {0, 3}},
			[]sim.ChannelOutcome{parked(3, 2)}, "node 2 parked on channel 0 while parked on channel 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			asn := fixedAsn{&fakeAsn{n: 4, total: 4, c: 2, k: 1, sets: tc.sets}}
			pk := ids(0, 1, 3)
			slot := func() []sim.ChannelOutcome {
				return append([]sim.ChannelOutcome{{Channel: 0, Winner: sim.None, Parked: pk}}, tc.others...)
			}
			var c invariant.Checker
			c.Reset(asn, sim.UniformWinner)
			c.OnSlot(0, slot())
			c.OnSlot(1, slot())
			if err := c.Err(); err != nil {
				t.Fatalf("clean parks flagged: %v", err)
			}
			pk[1] = 2 // still ascending, same length, same backing array
			c.OnSlot(2, slot())
			err := c.Err()
			if err == nil {
				t.Fatal("park rewritten in place not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
