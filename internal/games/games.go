// Package games implements the hitting games behind the paper's lower
// bounds (Section 6).
//
// In the (c,k)-bipartite hitting game a referee privately selects a
// k-matching M in the complete bipartite graph on (A, B), |A| = |B| = c; a
// player proposes one edge per round and wins on proposing an edge of M.
// Lemma 11 shows no player wins within c²/(αk) rounds with probability 1/2
// (α = 2(β/(β−1))², k ≤ c/β). With k = c the game becomes the c-complete
// bipartite hitting game of Lemma 14, whose bound is c/3 rounds.
//
// Lemma 12's reduction converts any local-label broadcast algorithm into a
// player that spends at most min{c,n} proposals per simulated slot, which
// transfers the game bounds to local broadcast (Theorem 15). The package
// implements the games, reference players, and the reduction, so all three
// lemmas can be checked empirically.
package games

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/cogradio/crn/internal/rng"
)

// Edge is a proposal (a_i, b_j), 0-indexed into the bipartition sides.
type Edge struct {
	A, B int
}

// Player proposes one edge per round. Implementations may be arbitrary
// probabilistic automata; they receive no feedback other than the game
// ending (per the game definition — a lost proposal reveals only that the
// game continues).
type Player interface {
	// Name identifies the player in reports.
	Name() string
	// Propose returns the player's proposal for the given round.
	Propose(round int) Edge
}

// Game is one instance of the (c,k)-bipartite hitting game with the
// referee's matching already drawn.
type Game struct {
	c, k     int
	matching map[int]int // a -> b for the k matched pairs
}

// NewGame draws a referee matching of size k uniformly at random: the
// referee picks each edge with uniform independent randomness, removing
// used endpoints (exactly the referee of Lemma 11's proof). k = c yields
// the c-complete bipartite hitting game.
func NewGame(c, k int, seed int64) (*Game, error) {
	if c < 1 || k < 1 || k > c {
		return nil, fmt.Errorf("games: invalid parameters c=%d k=%d", c, k)
	}
	r := rng.New(seed, int64(c), int64(k), 0x6a3e)
	as := r.Perm(c)[:k]
	bs := r.Perm(c)[:k]
	m := make(map[int]int, k)
	for i := 0; i < k; i++ {
		m[as[i]] = bs[i]
	}
	return &Game{c: c, k: k, matching: m}, nil
}

// C returns the side size of the bipartition.
func (g *Game) C() int { return g.c }

// K returns the matching size.
func (g *Game) K() int { return g.k }

// Hit reports whether e is in the referee's matching.
func (g *Game) Hit(e Edge) bool {
	b, ok := g.matching[e.A]
	return ok && b == e.B
}

// Play runs the player for at most maxRounds proposals and returns whether
// it won and how many proposals it used (the winning proposal included).
func (g *Game) Play(p Player, maxRounds int) (won bool, rounds int) {
	for round := 0; round < maxRounds; round++ {
		e := p.Propose(round)
		if g.Hit(e) {
			return true, round + 1
		}
	}
	return false, maxRounds
}

// LowerBoundRounds returns Lemma 11's bound c²/(αk) with α = 2(β/(β−1))²
// for β = c/k: the number of rounds within which no player wins with
// probability 1/2 (valid for k ≤ c/2, i.e. β ≥ 2).
func LowerBoundRounds(c, k int) int {
	beta := float64(c) / float64(k)
	alpha := 2 * (beta / (beta - 1)) * (beta / (beta - 1))
	return int(math.Floor(float64(c) * float64(c) / (alpha * float64(k))))
}

// CompleteLowerBoundRounds returns Lemma 14's bound c/3 for the c-complete
// bipartite hitting game.
func CompleteLowerBoundRounds(c int) int { return c / 3 }

// --- Reference players ---------------------------------------------------------

// UniformPlayer proposes an independent uniform edge every round.
type UniformPlayer struct {
	c    int
	rand *rand.Rand
}

var _ Player = (*UniformPlayer)(nil)

// NewUniformPlayer builds a uniform random player over side size c.
func NewUniformPlayer(c int, seed int64) *UniformPlayer {
	return &UniformPlayer{c: c, rand: rng.New(seed, 0x0091)}
}

// Name implements Player.
func (*UniformPlayer) Name() string { return "uniform" }

// Propose implements Player.
func (p *UniformPlayer) Propose(int) Edge {
	return Edge{A: p.rand.Intn(p.c), B: p.rand.Intn(p.c)}
}

// NonRepeatingPlayer proposes the c² edges in a uniformly random order,
// never repeating a proposal — with no feedback available, this dominates
// every memoryless strategy and is the natural "best effort" player.
type NonRepeatingPlayer struct {
	c     int
	order []int
}

var _ Player = (*NonRepeatingPlayer)(nil)

// NewNonRepeatingPlayer builds a non-repeating player over side size c.
func NewNonRepeatingPlayer(c int, seed int64) *NonRepeatingPlayer {
	return &NonRepeatingPlayer{c: c, order: rng.New(seed, 0x0092).Perm(c * c)}
}

// Name implements Player.
func (*NonRepeatingPlayer) Name() string { return "non-repeating" }

// Propose implements Player.
func (p *NonRepeatingPlayer) Propose(round int) Edge {
	if round >= len(p.order) {
		round = len(p.order) - 1 // every edge already tried; repeat the last
	}
	e := p.order[round]
	return Edge{A: e / p.c, B: e % p.c}
}

// --- The Lemma 12 reduction ------------------------------------------------------

// ChannelChooser supplies the per-slot channel choices of a simulated
// local-label broadcast algorithm in the two-set network of Lemma 12's
// proof: the source holds channel set A, the other n−1 nodes all hold
// channel set B, and no progress is possible until the source and some
// other node land on a matched pair. Since nothing is ever received before
// that moment, the algorithm's behavior is a deterministic or randomized
// function of the slot alone.
type ChannelChooser interface {
	// Choose returns the source's local channel and each non-source node's
	// local channel for the given simulated slot. The returned slice is
	// only read before the next call.
	Choose(slot int) (source int, others []int)
	// Channels returns c, the channel-set size the choices range over.
	Channels() int
}

// CogcastChooser is COGCAST's chooser: everyone hops uniformly at random.
type CogcastChooser struct {
	c      int
	rand   *rand.Rand
	others []int
}

var _ ChannelChooser = (*CogcastChooser)(nil)

// NewCogcastChooser builds the chooser for n nodes over c channels.
func NewCogcastChooser(n, c int, seed int64) *CogcastChooser {
	return &CogcastChooser{c: c, rand: rng.New(seed, 0x0093), others: make([]int, n-1)}
}

// Channels implements ChannelChooser.
func (ch *CogcastChooser) Channels() int { return ch.c }

// Choose implements ChannelChooser.
func (ch *CogcastChooser) Choose(int) (int, []int) {
	src := ch.rand.Intn(ch.c)
	for i := range ch.others {
		ch.others[i] = ch.rand.Intn(ch.c)
	}
	return src, ch.others
}

// ReductionPlayer is the player P_A of Lemma 12: it simulates the broadcast
// algorithm in the two-set network and, in each simulated slot, proposes
// every not-yet-tried edge (a_slot, b_slot^u) — at most min{c, n} unique
// proposals per slot. A win in the game corresponds to the first slot in
// which the source shares a channel with another node.
type ReductionPlayer struct {
	chooser ChannelChooser
	slot    int
	queue   []Edge
	tried   map[Edge]bool
	slots   int
	last    Edge
}

var _ Player = (*ReductionPlayer)(nil)

// NewReductionPlayer wraps a chooser into a game player.
func NewReductionPlayer(chooser ChannelChooser) *ReductionPlayer {
	return &ReductionPlayer{chooser: chooser, tried: make(map[Edge]bool)}
}

// Name implements Player.
func (*ReductionPlayer) Name() string { return "reduction" }

// Propose implements Player.
func (p *ReductionPlayer) Propose(int) Edge {
	if c := p.chooser.Channels(); len(p.queue) == 0 && len(p.tried) >= c*c {
		// Every edge has been proposed. In a real game the winning edge was
		// among them (the matching is nonempty), so this only happens when
		// Propose is driven outside Play; repeat the last proposal rather
		// than spin waiting for a fresh one that cannot exist.
		return p.last
	}
	for len(p.queue) == 0 {
		src, others := p.chooser.Choose(p.slot)
		p.slot++
		p.slots++
		for _, b := range others {
			e := Edge{A: src, B: b}
			if !p.tried[e] {
				p.tried[e] = true
				p.queue = append(p.queue, e)
			}
		}
	}
	e := p.queue[0]
	p.queue = p.queue[1:]
	p.last = e
	return e
}

// SimulatedSlots returns how many broadcast slots have been simulated so
// far — the quantity Lemma 12 relates to game rounds by the min{c,n} factor.
func (p *ReductionPlayer) SimulatedSlots() int { return p.slots }

// WinProbability estimates the probability that building the player with
// build and playing a fresh (c,k) game ends within maxRounds, over the
// given number of trials. It is the measurement Lemmas 11 and 14 bound.
func WinProbability(c, k, maxRounds, trials int, seed int64, build func(trial int64) Player) (float64, error) {
	if trials < 1 {
		return 0, fmt.Errorf("games: trials=%d must be positive", trials)
	}
	wins := 0
	for trial := 0; trial < trials; trial++ {
		g, err := NewGame(c, k, rng.Derive(seed, int64(trial), 1))
		if err != nil {
			return 0, err
		}
		if won, _ := g.Play(build(int64(trial)), maxRounds); won {
			wins++
		}
	}
	return float64(wins) / float64(trials), nil
}
