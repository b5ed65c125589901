package crn

import (
	"github.com/cogradio/crn/internal/gossip"
	"github.com/cogradio/crn/internal/rendezvous"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/spectrum"
)

// PrimaryUserSpec describes a spectrum environment driven by licensed
// primary users: each non-pilot channel follows an independent two-state
// Markov chain (free/busy), the pilot band is reserved for secondaries
// (providing the pairwise overlap guarantee), and devices may conservatively
// mis-sense free channels as busy.
type PrimaryUserSpec struct {
	// Nodes is the number of secondary devices.
	Nodes int
	// Channels is the total spectrum size C.
	Channels int
	// Pilots is the reserved band size (the guaranteed pairwise overlap).
	Pilots int
	// PBusy is the per-slot probability a free channel is claimed by a
	// primary user; PFree the probability a busy one is released.
	PBusy, PFree float64
	// MissProb is the per-device probability of sensing a free channel as
	// busy.
	MissProb float64
	// Seed roots the environment's randomness.
	Seed int64
}

// NewPrimaryUserNetwork builds a dynamic network whose channel availability
// is produced by the primary-user model — the physically motivated instance
// of the paper's dynamic setting. Broadcast and Gossip run over it;
// Aggregate does not (it requires a static assignment).
func NewPrimaryUserNetwork(spec PrimaryUserSpec) (*Network, error) {
	model, err := spectrum.New(spectrum.Config{
		Nodes:    spec.Nodes,
		Channels: spec.Channels,
		Pilots:   spec.Pilots,
		PBusy:    spec.PBusy,
		PFree:    spec.PFree,
		MissProb: spec.MissProb,
		Seed:     spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Network{asn: model}, nil
}

// GossipResult reports a multi-source dissemination run.
type GossipResult struct {
	// Slots executed.
	Slots int
	// Complete reports whether every node learned every rumor.
	Complete bool
	// MinKnown is the smallest per-node rumor count at the end.
	MinKnown int
}

// Gossip disseminates len(sources) rumors — rumor i starting at node
// sources[i] — using the multi-source extension of COGCAST: every node
// relays the union of the rumors it knows. It runs until every node knows
// every rumor or maxSlots elapse (0 means a generous automatic budget).
func (nw *Network) Gossip(sources []NodeID, seed int64, maxSlots int) (*GossipResult, error) {
	if maxSlots == 0 {
		maxSlots = 64 * nw.SlotBound(0) * (1 + len(sources))
	}
	srcs := make([]sim.NodeID, len(sources))
	for i, s := range sources {
		srcs[i] = sim.NodeID(s)
	}
	res, err := gossip.Run(nw.asn, srcs, seed, maxSlots)
	if err != nil {
		return nil, err
	}
	return &GossipResult{Slots: res.Slots, Complete: res.Complete, MinKnown: res.MinKnown}, nil
}

// RendezvousResult reports a pairwise rendezvous attempt.
type RendezvousResult struct {
	// Slots until the first meeting (or the budget).
	Slots int
	// Met reports whether the pair met within the budget.
	Met bool
}

// Rendezvous runs uniform randomized channel hopping for the pair (u, v)
// until they land on a common channel — the basic primitive the related
// rendezvous literature studies, meeting in about c²/overlap expected slots
// (paper footnote 1). maxSlots of 0 means a generous automatic budget.
func (nw *Network) Rendezvous(u, v NodeID, seed int64, maxSlots int) (*RendezvousResult, error) {
	if maxSlots == 0 {
		c := nw.ChannelsPerNode()
		maxSlots = 1000 * c * c / nw.MinOverlap()
	}
	res, err := rendezvous.Uniform(nw.asn, sim.NodeID(u), sim.NodeID(v), seed, maxSlots)
	if err != nil {
		return nil, err
	}
	return &RendezvousResult{Slots: res.Slots, Met: res.Met}, nil
}
