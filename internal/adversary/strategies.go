package adversary

import (
	"fmt"
	"sort"

	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
)

// Strategies returns the names of the built-in strategy population, in
// registry order: the no-op control, the reactive jammers, and the crash
// adversaries.
func Strategies() []string {
	return []string{"none", "busiest", "follower", "hunter", "crasher", "oblivious"}
}

// New builds a fresh strategy by name:
//
//	none      no-op control (never acts; the unjammed baseline arm)
//	busiest   jam the channels that carried the most broadcasters last slot
//	follower  jam the channels that last delivered a message
//	hunter    find channels dominated by one repeat winner — COGCOMP's
//	          elected mediators — then jam those channels and crash those
//	          winners (whichever weapon the run wires)
//	crasher   detect phase boundaries from sharp shifts in global traffic
//	          and burst-crash the recent winners — the recovery
//	          supervisor's worst case
//	oblivious observation-blind random crash-restarts paced to the same
//	          budget (the E26-style control the crasher is measured
//	          against at equal energy)
//
// Each strategy is deterministic given (seed, budget, observed history).
func New(name string) (Reactive, error) {
	return newStrategy(name)
}

// CanJam reports whether the named built-in strategy ever requests jam
// actions (so a jam-only run can reject crash-only strategies up front).
func CanJam(name string) bool {
	switch name {
	case "busiest", "follower", "hunter":
		return true
	}
	return false
}

// CanCrash reports whether the named built-in strategy ever requests
// crash actions.
func CanCrash(name string) bool {
	switch name {
	case "hunter", "crasher", "oblivious":
		return true
	}
	return false
}

func newStrategy(name string) (Reactive, error) {
	switch name {
	case "none":
		return &noop{}, nil
	case "busiest":
		return &busiest{}, nil
	case "follower":
		return &follower{}, nil
	case "hunter":
		return &hunter{}, nil
	case "crasher":
		return &crasher{}, nil
	case "oblivious":
		return &oblivious{}, nil
	default:
		return nil, fmt.Errorf("adversary: unknown strategy %q (want one of %v)", name, Strategies())
	}
}

// --- none -----------------------------------------------------------------

type noop struct{}

func (*noop) Name() string                      { return "none" }
func (*noop) Reset(int64, int, int, Budget)     {}
func (*noop) Observe(int, []sim.ChannelOutcome) {}
func (*noop) Plan(int) Action                   { return Action{} }

// --- busiest --------------------------------------------------------------

// busiest jams the channels that carried the most broadcasters in the
// previous slot, densest first: the epidemic's hottest spectrum is where
// the next deliveries are most likely.
type busiest struct {
	counts []int
	active []int
}

func (*busiest) Name() string { return "busiest" }

func (b *busiest) Reset(_ int64, _, c int, _ Budget) {
	b.counts = make([]int, c)
	b.active = b.active[:0]
}

func (b *busiest) Observe(_ int, outcomes []sim.ChannelOutcome) {
	for _, ch := range b.active {
		b.counts[ch] = 0
	}
	b.active = b.active[:0]
	for _, out := range outcomes {
		if len(out.Broadcasters) > 0 && out.Channel < len(b.counts) {
			b.counts[out.Channel] = len(out.Broadcasters)
			b.active = append(b.active, out.Channel)
		}
	}
	sortByScoreDesc(b.active, func(ch int) int { return b.counts[ch] })
}

func (b *busiest) Plan(int) Action { return Action{Jam: b.active} }

// --- follower -------------------------------------------------------------

// follower jams the channels that delivered a message in the previous
// slot, largest audience first: a successful channel is one the protocol
// has converged on and will retry.
type follower struct {
	audience []int
	hits     []int
}

func (*follower) Name() string { return "follower" }

func (f *follower) Reset(_ int64, _, c int, _ Budget) {
	f.audience = make([]int, c)
	f.hits = f.hits[:0]
}

func (f *follower) Observe(_ int, outcomes []sim.ChannelOutcome) {
	for _, ch := range f.hits {
		f.audience[ch] = 0
	}
	f.hits = f.hits[:0]
	for _, out := range outcomes {
		if out.Winner != sim.None && out.Channel < len(f.audience) {
			f.audience[out.Channel] = len(out.Listeners) + len(out.Parked) + 1
			f.hits = append(f.hits, out.Channel)
		}
	}
	sortByScoreDesc(f.hits, func(ch int) int { return f.audience[ch] })
}

func (f *follower) Plan(int) Action { return Action{Jam: f.hits} }

// --- hunter ---------------------------------------------------------------

// hunterStreak is how many consecutive wins on one channel mark its
// winner as a mediator (COGCOMP mediators win their census channel slot
// after slot; epidemic traffic churns winners).
const hunterStreak = 2

// hunter tracks, per channel, the current winner and its winning streak.
// A channel whose winner repeated hunterStreak times is treated as
// mediated: the channel goes on the jam list and its winner on the crash
// list, longest streak first. Which list bites depends on the run's
// wired weapon — jamming starves the mediator's audience (COGCAST /
// census traffic), crashing kills the mediator itself and forces the
// recovery supervisor to re-elect.
type hunter struct {
	winner []sim.NodeID
	streak []int
	chans  []int
	nodes  []int
}

func (*hunter) Name() string { return "hunter" }

func (h *hunter) Reset(_ int64, _, c int, _ Budget) {
	h.winner = make([]sim.NodeID, c)
	h.streak = make([]int, c)
	for ch := range h.winner {
		h.winner[ch] = sim.None
	}
	h.chans = h.chans[:0]
	h.nodes = h.nodes[:0]
}

func (h *hunter) Observe(_ int, outcomes []sim.ChannelOutcome) {
	for _, out := range outcomes {
		if out.Channel >= len(h.streak) {
			continue
		}
		switch {
		case out.Winner == sim.None:
			// Active but undelivered: the dominance is broken.
			h.winner[out.Channel] = sim.None
			h.streak[out.Channel] = 0
		case out.Winner == h.winner[out.Channel]:
			h.streak[out.Channel]++
		default:
			h.winner[out.Channel] = out.Winner
			h.streak[out.Channel] = 1
		}
	}
	// Idle channels keep their streaks: a mediator that pauses between
	// census rounds is still the same mediator.
	h.chans = h.chans[:0]
	for ch, s := range h.streak {
		if s >= hunterStreak {
			h.chans = append(h.chans, ch)
		}
	}
	sortByScoreDesc(h.chans, func(ch int) int { return h.streak[ch] })
	h.nodes = h.nodes[:0]
	for _, ch := range h.chans {
		h.nodes = append(h.nodes, int(h.winner[ch]))
	}
}

func (h *hunter) Plan(int) Action {
	act := Action{Jam: h.chans}
	for _, id := range h.nodes {
		act.Crash = append(act.Crash, sim.NodeID(id))
	}
	return act
}

// --- crasher --------------------------------------------------------------

const (
	// crasherHold is how many slots a detected boundary keeps the burst
	// armed — long enough to straddle a checkpoint window.
	crasherHold = 16
	// crasherWindow is the sliding window, in slots, over which winners
	// are ranked as crash targets.
	crasherWindow = 32
	// crasherWarmup skips detection during the opening slots, where
	// traffic ramps from nothing and every delta looks like a boundary.
	crasherWarmup = 4
)

// crasher watches the global broadcast count per slot and treats a sharp
// shift — traffic halving or doubling between consecutive slots — as a
// phase boundary (COGCOMP's epochs have distinct traffic signatures:
// the epidemic storm, the census trickle, the convergecast). At each
// detected boundary it arms a crasherHold-slot burst that holds down the
// nodes that won the most deliveries in the recent window — the nodes
// mid-checkpoint whose loss the recovery supervisor must repair.
type crasher struct {
	n         int
	prev      int
	seen      int
	burstLeft int
	wins      []int
	recent    []sim.NodeID
	targets   []int
}

func (*crasher) Name() string { return "crasher" }

func (c *crasher) Reset(_ int64, n, _ int, _ Budget) {
	c.n = n
	c.prev = 0
	c.seen = 0
	c.burstLeft = 0
	c.wins = make([]int, n)
	c.recent = c.recent[:0]
	c.targets = c.targets[:0]
}

func (c *crasher) Observe(_ int, outcomes []sim.ChannelOutcome) {
	cur := 0
	for _, out := range outcomes {
		cur += len(out.Broadcasters)
		if out.Winner != sim.None && int(out.Winner) < c.n {
			c.wins[out.Winner]++
			c.recent = append(c.recent, out.Winner)
		}
	}
	// Age the window.
	for len(c.recent) > crasherWindow {
		c.wins[c.recent[0]]--
		c.recent = c.recent[1:]
	}
	c.seen++
	if c.seen > crasherWarmup {
		delta := cur - c.prev
		if delta < 0 {
			delta = -delta
		}
		big := c.prev / 2
		if big < 2 {
			big = 2
		}
		if delta >= big {
			c.burstLeft = crasherHold
		}
	}
	c.prev = cur
	if c.burstLeft > 0 {
		c.burstLeft--
		c.targets = c.targets[:0]
		for id, w := range c.wins {
			if w > 0 {
				c.targets = append(c.targets, id)
			}
		}
		sortByScoreDesc(c.targets, func(id int) int { return c.wins[id] })
	} else {
		c.targets = c.targets[:0]
	}
}

func (c *crasher) Plan(int) Action {
	var act Action
	for _, id := range c.targets {
		act.Crash = append(act.Crash, sim.NodeID(id))
	}
	return act
}

// --- oblivious ------------------------------------------------------------

// obliviousDuration is the outage length, matching E26's default.
const obliviousDuration = 10

// oblivious ignores its observations entirely: it schedules E26-style
// random crash-restart outages — a fresh uniformly drawn node set per
// obliviousDuration-slot window, sized to the per-slot budget — through
// the same driver and ledger as the reactive strategies. It is the
// equal-energy control the phase-boundary crasher is compared against.
type oblivious struct {
	seed    int64
	n       int
	perSlot int
	window  int
	picks   []sim.NodeID
}

func (*oblivious) Name() string { return "oblivious" }

func (o *oblivious) Reset(seed int64, n, _ int, budget Budget) {
	o.seed = seed
	o.n = n
	o.perSlot = budget.PerSlot
	o.window = -1
	o.picks = o.picks[:0]
}

func (o *oblivious) Observe(int, []sim.ChannelOutcome) {}

func (o *oblivious) Plan(slot int) Action {
	w := slot / obliviousDuration
	if w != o.window {
		o.window = w
		o.picks = o.picks[:0]
		want := o.perSlot
		if want > o.n {
			want = o.n
		}
		r := rng.New(o.seed, int64(w), 0x0b11)
		for _, id := range r.Perm(o.n)[:want] {
			o.picks = append(o.picks, sim.NodeID(id))
		}
		sort.Slice(o.picks, func(i, j int) bool { return o.picks[i] < o.picks[j] })
	}
	return Action{Crash: o.picks}
}
