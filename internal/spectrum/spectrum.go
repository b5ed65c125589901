// Package spectrum models the radio environment that motivates cognitive
// radio in the first place: licensed primary users (e.g. television
// transmitters) occupy channels intermittently, and secondary devices may
// only use channels they currently sense as free. Each non-pilot channel
// follows an independent two-state Markov chain (free/busy); a small set of
// pilot channels is reserved for secondaries and never occupied, providing
// the pairwise overlap guarantee k the model requires. Imperfect sensing is
// modelled as per-node false-busy errors: a device may conservatively skip
// a free channel, but never transmits on a busy one.
//
// The result implements sim.Assignment, giving the paper's "dynamic
// channel assignment" setting a physically motivated generator (instead of
// uniform re-draws) for experiment E22.
package spectrum

import (
	"fmt"
	"math/rand"

	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
)

// Model is a primary-user-driven dynamic channel assignment.
type Model struct {
	nodes    int
	channels int // C, total spectrum
	pilots   int // k channels never occupied by primaries
	pBusy    float64
	pFree    float64
	miss     float64
	seed     int64

	stateSlot int
	busy      []bool

	cachedSlot int
	cached     [][]int
	r          *rand.Rand // re-seeded per (slot, node); see fill
}

var _ sim.Assignment = (*Model)(nil)

// Config parameterizes a Model.
type Config struct {
	// Nodes is the number of secondary devices.
	Nodes int
	// Channels is the total spectrum size C.
	Channels int
	// Pilots is the number of reserved channels (the guaranteed overlap k).
	Pilots int
	// PBusy is the per-slot probability a free channel is claimed by a
	// primary user; PFree the probability a busy channel is released.
	PBusy, PFree float64
	// MissProb is the per-node probability of sensing a free channel as
	// busy (a conservative error; the converse never happens).
	MissProb float64
	// Seed roots all randomness.
	Seed int64
}

// New builds the model. Requires at least one pilot channel — without a
// reserved band there is no overlap guarantee and broadcast becomes the
// Theorem 17 impossibility.
func New(cfg Config) (*Model, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("spectrum: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.Pilots < 1 || cfg.Pilots > cfg.Channels {
		return nil, fmt.Errorf("spectrum: pilots=%d must be in [1, channels=%d]", cfg.Pilots, cfg.Channels)
	}
	if bad(cfg.PBusy) || bad(cfg.PFree) || bad(cfg.MissProb) {
		return nil, fmt.Errorf("spectrum: probabilities must lie in [0,1]: pBusy=%v pFree=%v miss=%v",
			cfg.PBusy, cfg.PFree, cfg.MissProb)
	}
	m := &Model{
		nodes:      cfg.Nodes,
		channels:   cfg.Channels,
		pilots:     cfg.Pilots,
		pBusy:      cfg.PBusy,
		pFree:      cfg.PFree,
		miss:       cfg.MissProb,
		seed:       cfg.Seed,
		stateSlot:  -1,
		cachedSlot: -1,
		busy:       make([]bool, cfg.Channels),
		cached:     make([][]int, cfg.Nodes),
	}
	return m, nil
}

func bad(p float64) bool { return p < 0 || p > 1 }

// Nodes returns the device count.
func (m *Model) Nodes() int { return m.nodes }

// Channels returns C.
func (m *Model) Channels() int { return m.channels }

// PerNode returns the nominal per-node set size: the full spectrum. Actual
// per-slot sets are smaller (primary occupancy + sensing misses); protocols
// observe real sizes through sim.NodeView.
func (m *Model) PerNode() int { return m.channels }

// MinOverlap returns the guaranteed overlap: the pilot band.
func (m *Model) MinOverlap() int { return m.pilots }

// Busy reports whether a primary user occupies the channel in the given
// slot (always false for pilot channels). Exposed for tests and analysis.
func (m *Model) Busy(slot, channel int) bool {
	m.evolveTo(slot)
	return m.busy[channel]
}

// ChannelSet returns the channels the node senses free in the slot, pilots
// first in a node-private random order.
func (m *Model) ChannelSet(node sim.NodeID, slot int) []int {
	if slot != m.cachedSlot {
		m.fill(slot)
	}
	return m.cached[node]
}

// evolveTo advances the Markov chains to the given slot. Queries normally
// arrive in nondecreasing order (the engine is slot-monotone); a query for
// an earlier slot replays the chains from the start, keeping the model a
// pure function of (seed, slot) at O(slot) cost.
func (m *Model) evolveTo(slot int) {
	if slot < m.stateSlot {
		for i := range m.busy {
			m.busy[i] = false
		}
		m.stateSlot = -1
	}
	for s := m.stateSlot + 1; s <= slot; s++ {
		for ch := m.pilots; ch < m.channels; ch++ {
			coin := rng.Uniform01(m.seed, int64(s), int64(ch), 0x5bec)
			if m.busy[ch] {
				if coin < m.pFree {
					m.busy[ch] = false
				}
			} else if coin < m.pBusy {
				m.busy[ch] = true
			}
		}
	}
	m.stateSlot = slot
}

func (m *Model) fill(slot int) {
	m.evolveTo(slot)
	for u := 0; u < m.nodes; u++ {
		set := m.cached[u][:0]
		for ch := 0; ch < m.pilots; ch++ {
			set = append(set, ch) // pilots are always known free
		}
		for ch := m.pilots; ch < m.channels; ch++ {
			if m.busy[ch] {
				continue
			}
			if m.miss > 0 && rng.Uniform01(m.seed, int64(slot), int64(ch), int64(u), 0x5bed) < m.miss {
				continue // sensed busy by this node
			}
			set = append(set, ch)
		}
		m.r = rng.Reseed(m.r, m.seed, int64(slot), int64(u), 0x5bee)
		m.r.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		m.cached[u] = set
	}
	m.cachedSlot = slot
}

// OccupancyStationary returns the stationary busy probability of a
// non-pilot channel, pBusy / (pBusy + pFree) (0 if both are 0).
func (m *Model) OccupancyStationary() float64 {
	if m.pBusy+m.pFree == 0 {
		return 0
	}
	return m.pBusy / (m.pBusy + m.pFree)
}
