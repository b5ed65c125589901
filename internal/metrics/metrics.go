// Package metrics collects per-slot medium statistics from an engine run
// via the sim.Observer hook: how many channels carried traffic, how often
// broadcasts collided, how many listens paid off. These quantities explain
// the paper's headline gaps — e.g. rendezvous broadcast wastes a factor c
// of listening slots compared to COGCAST's epidemic, which experiment E21
// makes visible as medium utilization.
package metrics

import (
	"fmt"

	"github.com/cogradio/crn/internal/sim"
)

// Collector accumulates medium statistics. It implements sim.Observer and
// is attached with sim.WithObserver. The zero value is ready to use.
type Collector struct {
	slots         int
	busyChannels  int64 // channels with >= 1 broadcaster
	collided      int64 // channels with >= 2 broadcasters
	broadcasts    int64 // individual transmissions
	deliveries    int64 // listener receptions (listener on a busy channel)
	wastedListens int64 // listeners on silent channels
}

var _ sim.Observer = (*Collector)(nil)

// OnSlot implements sim.Observer: it counts the slot and folds every
// outcome in through AddChannel.
func (c *Collector) OnSlot(_ int, outcomes []sim.ChannelOutcome) {
	c.AddSlot()
	for _, oc := range outcomes {
		c.AddChannel(len(oc.Broadcasters), len(oc.Listeners)+len(oc.Parked))
	}
}

// AddSlot counts one observed slot.
func (c *Collector) AddSlot() { c.slots++ }

// AddChannel folds one active channel's outcome, given as its broadcaster
// and listener counts, into the statistics. Replays of recorded runs
// (trace.Summarize) call AddSlot and AddChannel directly, so they need no
// node lists.
func (c *Collector) AddChannel(broadcasters, listeners int) {
	c.broadcasts += int64(broadcasters)
	if broadcasters == 0 {
		c.wastedListens += int64(listeners)
		return
	}
	c.busyChannels++
	if broadcasters > 1 {
		c.collided++
	}
	c.deliveries += int64(listeners)
}

// Metrics is a finished summary of a run.
type Metrics struct {
	// Slots observed.
	Slots int
	// BusyChannelsPerSlot is the mean number of channels carrying at least
	// one transmission per slot.
	BusyChannelsPerSlot float64
	// CollisionRate is the fraction of busy channels with 2+ broadcasters.
	CollisionRate float64
	// DeliveryRate is the fraction of listen actions that received a
	// message — the medium's usefulness from a receiver's perspective.
	DeliveryRate float64
	// BroadcastsPerSlot is the mean number of transmissions per slot.
	BroadcastsPerSlot float64
}

// Snapshot computes the summary so far.
func (c *Collector) Snapshot() Metrics {
	m := Metrics{Slots: c.slots}
	if c.slots > 0 {
		m.BusyChannelsPerSlot = float64(c.busyChannels) / float64(c.slots)
		m.BroadcastsPerSlot = float64(c.broadcasts) / float64(c.slots)
	}
	if c.busyChannels > 0 {
		m.CollisionRate = float64(c.collided) / float64(c.busyChannels)
	}
	if listens := c.deliveries + c.wastedListens; listens > 0 {
		m.DeliveryRate = float64(c.deliveries) / float64(listens)
	}
	return m
}

// String renders the metrics compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("slots=%d busy/slot=%.2f collisions=%.0f%% delivery=%.0f%%",
		m.Slots, m.BusyChannelsPerSlot, 100*m.CollisionRate, 100*m.DeliveryRate)
}
