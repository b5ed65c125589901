package games

import (
	"testing"

	"github.com/cogradio/crn/internal/rng"
)

func TestNewGameMatchingIsValid(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g, err := NewGame(10, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.matching) != 4 {
			t.Fatalf("matching size %d, want 4", len(g.matching))
		}
		seenB := make(map[int]bool)
		for a, b := range g.matching {
			if a < 0 || a >= 10 || b < 0 || b >= 10 {
				t.Fatalf("edge (%d,%d) out of range", a, b)
			}
			if seenB[b] {
				t.Fatalf("b-vertex %d matched twice", b)
			}
			seenB[b] = true
		}
	}
}

func TestNewGameValidation(t *testing.T) {
	for _, bad := range []struct{ c, k int }{{0, 1}, {3, 0}, {3, 4}, {-1, -1}} {
		if _, err := NewGame(bad.c, bad.k, 1); err == nil {
			t.Errorf("NewGame(%d,%d) accepted", bad.c, bad.k)
		}
	}
}

func TestHitAndPlay(t *testing.T) {
	g, err := NewGame(5, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect matching: every a is matched; the player that scans all
	// edges must win within c² proposals.
	p := NewNonRepeatingPlayer(5, 7)
	won, rounds := g.Play(p, 25)
	if !won {
		t.Fatal("scanning player failed to win a complete game within c² rounds")
	}
	if rounds < 1 || rounds > 25 {
		t.Errorf("rounds = %d", rounds)
	}
}

func TestPlayRespectsMaxRounds(t *testing.T) {
	g, err := NewGame(8, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	won, rounds := g.Play(NewUniformPlayer(8, 9), 1)
	if rounds > 1 {
		t.Errorf("rounds = %d with maxRounds 1", rounds)
	}
	_ = won
}

func TestLowerBoundRoundsFormula(t *testing.T) {
	// β = c/k = 10 → α = 2·(10/9)² ≈ 2.469; c²/(αk) = 400/4.938 ≈ 81.
	got := LowerBoundRounds(20, 2)
	if got < 78 || got > 84 {
		t.Errorf("LowerBoundRounds(20,2) = %d, want ≈ 81", got)
	}
	// β = 2 → α = 8: the paper's worst constant.
	if got := LowerBoundRounds(16, 8); got != 4 {
		t.Errorf("LowerBoundRounds(16,8) = %d, want 16·16/(8·8) = 4", got)
	}
	if got := CompleteLowerBoundRounds(30); got != 10 {
		t.Errorf("CompleteLowerBoundRounds(30) = %d", got)
	}
}

func TestLemma11EmpiricalBound(t *testing.T) {
	// No player should win within LowerBoundRounds(c,k) rounds with
	// probability ≥ 1/2. Check both reference players with margin for
	// sampling noise.
	const c, k, trials = 20, 2, 400
	bound := LowerBoundRounds(c, k)
	players := map[string]func(trial int64) Player{
		"uniform":       func(tr int64) Player { return NewUniformPlayer(c, rng.Derive(1, tr)) },
		"non-repeating": func(tr int64) Player { return NewNonRepeatingPlayer(c, rng.Derive(2, tr)) },
	}
	for name, build := range players {
		p, err := WinProbability(c, k, bound, trials, 42, build)
		if err != nil {
			t.Fatal(err)
		}
		if p >= 0.5 {
			t.Errorf("%s player wins with probability %.3f within %d rounds; Lemma 11 bounds this below 1/2", name, p, bound)
		}
	}
}

func TestLemma14EmpiricalBound(t *testing.T) {
	// c-complete game: within c/3 rounds the win probability must stay
	// below 1/2 (it is ≈ 1−e^{-1/3} ≈ 0.28 for the uniform player).
	const c, trials = 30, 400
	bound := CompleteLowerBoundRounds(c)
	p, err := WinProbability(c, c, bound, trials, 7, func(tr int64) Player {
		return NewNonRepeatingPlayer(c, rng.Derive(3, tr))
	})
	if err != nil {
		t.Fatal(err)
	}
	if p >= 0.5 {
		t.Errorf("win probability %.3f within c/3 rounds; Lemma 14 bounds this below 1/2", p)
	}
}

func TestNonRepeatingPlayerCoversAllEdges(t *testing.T) {
	const c = 6
	p := NewNonRepeatingPlayer(c, 11)
	seen := make(map[Edge]bool)
	for round := 0; round < c*c; round++ {
		e := p.Propose(round)
		if e.A < 0 || e.A >= c || e.B < 0 || e.B >= c {
			t.Fatalf("edge %v out of range", e)
		}
		if seen[e] {
			t.Fatalf("edge %v proposed twice", e)
		}
		seen[e] = true
	}
	if len(seen) != c*c {
		t.Errorf("covered %d edges, want %d", len(seen), c*c)
	}
	// Past exhaustion the player repeats its last proposal rather than
	// going out of range.
	last := p.Propose(c * c)
	if last.A < 0 || last.A >= c {
		t.Errorf("post-exhaustion proposal %v invalid", last)
	}
}

func TestReductionPlayerWinsEveryGame(t *testing.T) {
	// The reduction player simulates COGCAST in the two-set network; it
	// must eventually win every game (COGCAST solves broadcast w.h.p.).
	const c, k, n = 12, 3, 8
	for seed := int64(0); seed < 10; seed++ {
		g, err := NewGame(c, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		p := NewReductionPlayer(NewCogcastChooser(n, c, seed))
		won, rounds := g.Play(p, 100000)
		if !won {
			t.Fatalf("seed %d: reduction player lost after %d rounds", seed, rounds)
		}
		// Lemma 12's accounting: rounds ≤ min{c,n} · simulated slots.
		if lim := min(c, n) * p.SimulatedSlots(); rounds > lim {
			t.Errorf("seed %d: %d rounds > min{c,n}·slots = %d", seed, rounds, lim)
		}
	}
}

func TestReductionPlayerUniqueProposalsPerSlot(t *testing.T) {
	// Per simulated slot the player may emit at most min{c, n-1} new
	// proposals (all share the same source endpoint). Exactly c² = 100
	// unique proposals exist, and Lemma 12's player makes every one of them
	// before it repeats any, including the rest of the slot that completes
	// the set: the sweep chooser's last slot queues c new edges at once.
	const c = 10
	for _, tc := range []struct {
		name    string
		n       int
		chooser ChannelChooser
	}{
		{"cogcast", 6, NewCogcastChooser(6, c, 3)},
		{"sweep", c + 1, sweepChooser{c: c, others: make([]int, c)}},
	} {
		p := NewReductionPlayer(tc.chooser)
		perSlot := make(map[int]int)
		seen := make(map[Edge]bool)
		for i := 0; i < c*c; i++ {
			before := p.SimulatedSlots()
			e := p.Propose(i)
			if seen[e] {
				t.Fatalf("%s: proposal %d, %v, repeated", tc.name, i, e)
			}
			seen[e] = true
			perSlot[before]++
		}
		for slot, count := range perSlot {
			if count > tc.n-1 {
				t.Errorf("%s: slot %d produced %d proposals, want <= n-1 = %d", tc.name, slot, count, tc.n-1)
			}
		}
	}
}

// sweepChooser puts the source on channel slot mod c and the c other nodes
// on channels 0..c-1, so each slot offers c untried edges.
type sweepChooser struct {
	c      int
	others []int
}

func (s sweepChooser) Channels() int { return s.c }

func (s sweepChooser) Choose(slot int) (int, []int) {
	for i := range s.others {
		s.others[i] = i
	}
	return slot % s.c, s.others
}

func TestWinProbabilityValidation(t *testing.T) {
	if _, err := WinProbability(5, 2, 10, 0, 1, func(int64) Player { return NewUniformPlayer(5, 1) }); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := WinProbability(0, 0, 10, 5, 1, func(int64) Player { return NewUniformPlayer(5, 1) }); err == nil {
		t.Error("invalid game parameters accepted")
	}
}

func TestPlayerNames(t *testing.T) {
	if NewUniformPlayer(3, 1).Name() != "uniform" {
		t.Error("uniform name")
	}
	if NewNonRepeatingPlayer(3, 1).Name() != "non-repeating" {
		t.Error("non-repeating name")
	}
	if NewReductionPlayer(NewCogcastChooser(3, 3, 1)).Name() != "reduction" {
		t.Error("reduction name")
	}
}

func TestReductionPlayerExhaustionDoesNotSpin(t *testing.T) {
	// With c=3 there are only 9 unique edges. Driving Propose past
	// exhaustion must return (repeated) edges rather than loop forever.
	p := NewReductionPlayer(NewCogcastChooser(4, 3, 1))
	for i := 0; i < 50; i++ {
		e := p.Propose(i)
		if e.A < 0 || e.A >= 3 || e.B < 0 || e.B >= 3 {
			t.Fatalf("proposal %v out of range", e)
		}
	}
}
