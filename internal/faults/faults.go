// Package faults injects temporary node failures into simulations. The
// paper argues (Section 1) that COGCAST's stateless per-slot behavior makes
// it robust to "changes to the network conditions, temporary faults, and so
// on"; this package makes that claim testable: a Crasher wraps any
// sim.Protocol and silences it during adversarially or randomly scheduled
// outages — the node neither transmits nor hears anything while down, as if
// its radio lost power.
//
// The contrast experiment (E20) shows the flip side: the same outages that
// barely slow COGCAST break COGCOMP's tightly scheduled phases, which is
// exactly why the paper presents the simple epidemic primitive as the
// robust building block.
package faults

import (
	"fmt"

	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// Schedule decides whether a node is up in a given slot. Implementations
// must be deterministic functions of their inputs.
type Schedule interface {
	// Up reports whether the node's radio works during the slot.
	Up(node sim.NodeID, slot int) bool
	// Name identifies the schedule in reports.
	Name() string
}

// AlwaysUp is the no-fault control schedule.
type AlwaysUp struct{}

var _ Schedule = AlwaysUp{}

// Up implements Schedule.
func (AlwaysUp) Up(sim.NodeID, int) bool { return true }

// Name implements Schedule.
func (AlwaysUp) Name() string { return "none" }

// RandomOutages takes each node down independently with probability p per
// slot, for an outage of fixed duration. Outage starts are derived from
// (seed, node, slot), so runs are reproducible.
type RandomOutages struct {
	p        float64
	duration int
	seed     int64
	protect  map[sim.NodeID]bool
}

var _ Schedule = (*RandomOutages)(nil)

// NewRandomOutages builds a schedule where every unprotected node goes down
// with per-slot probability p for duration slots. Protected nodes (e.g. a
// source that must stay alive for broadcast to be solvable) never fail.
func NewRandomOutages(p float64, duration int, seed int64, protect ...sim.NodeID) (*RandomOutages, error) {
	if p < 0 || p >= 1 {
		return nil, fmt.Errorf("faults: outage probability %v outside [0,1)", p)
	}
	if duration < 1 {
		return nil, fmt.Errorf("faults: outage duration %d must be positive", duration)
	}
	prot := make(map[sim.NodeID]bool, len(protect))
	for _, id := range protect {
		prot[id] = true
	}
	return &RandomOutages{p: p, duration: duration, seed: seed, protect: prot}, nil
}

// Name implements Schedule.
func (*RandomOutages) Name() string { return "random-outages" }

// Up implements Schedule: the node is down in slot t if an outage started
// in any of the slots (t-duration, t]. Each slot independently starts an
// outage with probability p.
func (r *RandomOutages) Up(node sim.NodeID, slot int) bool {
	if r.protect[node] {
		return true
	}
	start := slot - r.duration + 1
	if start < 0 {
		start = 0
	}
	for s := start; s <= slot; s++ {
		if rng.Uniform01(r.seed, int64(node), int64(s), 0xfa17) < r.p {
			return false
		}
	}
	return true
}

// CorrelatedOutages takes whole clusters of adjacent nodes down together —
// modelling co-located radios that share a power feed or lose a band at
// once. Nodes are grouped into consecutive blocks of groupSize ids; each
// group independently starts an outage with probability p per slot, and
// every unprotected member of the group is down for its duration. Outage
// starts are derived from (seed, group, slot), so runs are reproducible.
type CorrelatedOutages struct {
	p         float64
	duration  int
	groupSize int
	seed      int64
	protect   map[sim.NodeID]bool
}

var _ Schedule = (*CorrelatedOutages)(nil)

// NewCorrelatedOutages builds a schedule where each block of groupSize
// consecutive node ids goes down together with per-slot probability p for
// duration slots. Protected nodes never fail even when their group does.
func NewCorrelatedOutages(p float64, duration, groupSize int, seed int64, protect ...sim.NodeID) (*CorrelatedOutages, error) {
	if p < 0 || p >= 1 {
		return nil, fmt.Errorf("faults: outage probability %v outside [0,1)", p)
	}
	if duration < 1 {
		return nil, fmt.Errorf("faults: outage duration %d must be positive", duration)
	}
	if groupSize < 1 {
		return nil, fmt.Errorf("faults: group size %d must be positive", groupSize)
	}
	prot := make(map[sim.NodeID]bool, len(protect))
	for _, id := range protect {
		prot[id] = true
	}
	return &CorrelatedOutages{p: p, duration: duration, groupSize: groupSize, seed: seed, protect: prot}, nil
}

// Name implements Schedule.
func (*CorrelatedOutages) Name() string { return "correlated-outages" }

// Up implements Schedule: the node is down in slot t if its group started
// an outage in any of the slots (t-duration, t].
func (c *CorrelatedOutages) Up(node sim.NodeID, slot int) bool {
	if c.protect[node] {
		return true
	}
	group := int64(node) / int64(c.groupSize)
	start := slot - c.duration + 1
	if start < 0 {
		start = 0
	}
	for s := start; s <= slot; s++ {
		if rng.Uniform01(c.seed, group, int64(s), 0xc011) < c.p {
			return false
		}
	}
	return true
}

// Blackout takes a fixed set of nodes down during one interval — the
// deterministic worst-case "a whole region lost power" fault.
type Blackout struct {
	from, until int // [from, until)
	nodes       map[sim.NodeID]bool
}

var _ Schedule = (*Blackout)(nil)

// NewBlackout builds a schedule where the listed nodes are down for slots
// [from, until).
func NewBlackout(from, until int, nodes ...sim.NodeID) (*Blackout, error) {
	if from < 0 || until < from {
		return nil, fmt.Errorf("faults: invalid blackout interval [%d, %d)", from, until)
	}
	set := make(map[sim.NodeID]bool, len(nodes))
	for _, id := range nodes {
		set[id] = true
	}
	return &Blackout{from: from, until: until, nodes: set}, nil
}

// Name implements Schedule.
func (*Blackout) Name() string { return "blackout" }

// Up implements Schedule.
func (b *Blackout) Up(node sim.NodeID, slot int) bool {
	return !b.nodes[node] || slot < b.from || slot >= b.until
}

// Crasher wraps a protocol with a fault schedule: while down, the node
// idles and hears nothing; its inner protocol does not even observe the
// slots passing (its Step is not called), modelling a powered-off radio
// whose firmware clock resumes with the global slot number — the synchrony
// assumption of the model survives because slots are globally numbered.
//
// A Crasher implements sim.StepperInto whatever it wraps: its StepInto
// calls the inner protocol's StepInto when it has one and its Step
// otherwise, so a wrapped node still writes its action in place. It strips
// every dormancy hint (see StepInto), so it does not forward
// sim.CatchUpper: without a stand or a quiet park nothing is served deaf.
type Crasher struct {
	inner    sim.Protocol
	id       sim.NodeID
	schedule Schedule
	downed   int
	down     bool
	sink     trace.Sink
	restart  Restartable
	restarts int
}

// Restartable is the contract crash-restart faults need from a protocol:
// MissSlot records a slot the node was down for (so slot-aligned state,
// such as the phase-one position COGCOMP's rewind replays by, stays
// aligned), and Restart wipes whatever state the protocol's durability
// model declares volatile at the given slot. cogcomp.Node implements it.
type Restartable interface {
	MissSlot(slot int)
	Restart(slot int)
}

var (
	_ sim.Protocol    = (*Crasher)(nil)
	_ sim.StepperInto = (*Crasher)(nil)
)

// Option configures a Crasher.
type Option func(*Crasher)

// WithTrace makes the crasher emit a trace.KindFault event on every
// up/down transition of its schedule. A nil sink disables emission, so
// callers can pass a possibly-nil sink through unconditionally.
func WithTrace(sink trace.Sink) Option {
	return func(c *Crasher) { c.sink = sink }
}

// WithRestart turns outages into crash-restarts: while down the inner
// protocol's missed slots are recorded, and when the node comes back its
// volatile state is wiped (Restartable.Restart) — it returns with what its
// durability model preserved, not a frozen snapshot. If the inner protocol
// does not implement Restartable the option silently degrades to the plain
// outage (silence-only) behavior.
func WithRestart() Option {
	return func(c *Crasher) { c.restart, _ = c.inner.(Restartable) }
}

// Wrap decorates a protocol with the fault schedule.
func Wrap(inner sim.Protocol, id sim.NodeID, schedule Schedule, opts ...Option) *Crasher {
	c := &Crasher{inner: inner, id: id, schedule: schedule}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Step implements sim.Protocol.
func (c *Crasher) Step(slot int) (a sim.Action) {
	c.StepInto(slot, &a)
	return a
}

// StepInto implements sim.StepperInto: Step writing every field of the
// action into *a.
func (c *Crasher) StepInto(slot int, a *sim.Action) {
	up := c.schedule.Up(c.id, slot)
	if up == c.down {
		c.down = !up
		if c.sink != nil {
			c.sink.Emit(trace.FaultEvent(slot, int(c.id), c.down))
		}
		if up && c.restart != nil {
			// The node comes back from a crash: wipe volatile state.
			c.restart.Restart(slot)
			c.restarts++
			if c.sink != nil {
				c.sink.Emit(trace.RestartEvent(slot, int(c.id)))
			}
		}
	}
	if !up {
		c.downed++
		if c.restart != nil {
			c.restart.MissSlot(slot)
		}
		*a = sim.Idle()
		return
	}
	if in, ok := c.inner.(sim.StepperInto); ok {
		in.StepInto(slot, a)
	} else {
		*a = c.inner.Step(slot)
	}
	// Strip any dormancy hint: the inner protocol cannot promise "no state
	// change for k slots" across a fault boundary it knows nothing about —
	// a crash mid-promise must be observed at the scheduled slot, so a
	// fault-wrapped node is stepped densely.
	a.Sleep = 0
}

// Deliver implements sim.Protocol. Down nodes cannot receive, but the
// engine only delivers to nodes that acted, and a down node idles — so this
// forwards unconditionally and the schedule is still airtight.
func (c *Crasher) Deliver(slot int, ev sim.Event) { c.inner.Deliver(slot, ev) }

// Done implements sim.Protocol.
func (c *Crasher) Done() bool { return c.inner.Done() }

// DownSlots returns how many slots the node spent offline.
func (c *Crasher) DownSlots() int { return c.downed }

// Down reports whether the node is currently offline (as of its last Step).
func (c *Crasher) Down() bool { return c.down }

// Restarts returns how many crash-restarts the node performed (always zero
// without WithRestart).
func (c *Crasher) Restarts() int { return c.restarts }
