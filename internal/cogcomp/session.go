package cogcomp

import (
	"context"
	"errors"
	"fmt"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/sim"
)

// A session amortizes COGCOMP's setup: the distribution tree, census and
// informer structures (phases one to three) are built once, and phase four
// — the only part that touches the data — is re-run once per reporting
// round with fresh inputs. Rounds occupy fixed windows of RoundSteps steps
// so all nodes agree on the boundaries; Theorem 10's induction gives
// r_l <= n + l steps, so the default window n + l + margin always suffices
// in the collision model.
//
// This is an extension of the paper (experiment E25): the paper's practical
// motivation — periodic quality-of-service snapshots — implies repeated
// aggregations over a static network, where paying the Θ((c/k)lg n) tree
// construction once instead of every round is the natural engineering move.

// SessionConfig configures a multi-round run.
type SessionConfig struct {
	// Kappa scales phase one (0 = cogcast.DefaultKappa).
	Kappa float64
	// Func is the aggregate (nil = aggfunc.Sum).
	Func aggfunc.Func
	// RoundSteps is the per-round step window (0 = n + l + 16).
	RoundSteps int
	// Shards splits the engine's per-slot protocol scan across that many
	// goroutines (sim.WithShards). Results are byte-identical at any value;
	// 0 or 1 means serial.
	Shards int
	// Sparse enables event-driven stepping (sim.WithSparse); see
	// Config.Sparse. Round-finished nodes sleep to the next round boundary
	// and phase-four holding patterns park, so a session's cost tracks its
	// traffic rather than n·slots.
	Sparse bool
	// Check attaches the invariant oracle: the assignment contract, every
	// slot's channel outcomes, and every complete round's aggregate
	// against aggfunc.Fold ground truth. A violation fails the session.
	Check bool
	// Context, when non-nil, is checked at every slot boundary; see
	// Config.Context.
	Context context.Context
}

// SessionResult reports a multi-round aggregation.
type SessionResult struct {
	// Values[r] is the source's aggregate for round r.
	Values []aggfunc.Value
	// Complete[r] reports whether round r finished within its window.
	Complete []bool
	// TotalSlots is the whole session's slot count.
	TotalSlots int
	// SetupSlots is the phases 1-3 cost paid once (2l + n).
	SetupSlots int
	// RoundSlots is the fixed per-round window in slots (3·RoundSteps).
	RoundSlots int
	// FinishSteps[r] is the step within round r at which the source had
	// collected everything (-1 if the round ran out of window) — the signal
	// for tuning RoundSteps in subsequent sessions.
	FinishSteps []int
}

// RunRounds executes a session: rounds[r][v] is node v's input in round r.
// The assignment must be static. Every round's aggregate is computed over
// the same distribution tree. Repeated callers should prefer a reusable
// Arena; this convenience builds a fresh one per call.
func RunRounds(asn sim.Assignment, source sim.NodeID, rounds [][]int64, seed int64, cfg SessionConfig) (*SessionResult, error) {
	return new(Arena).RunRounds(asn, source, rounds, seed, cfg)
}

// RunRounds executes a session exactly as the package-level RunRounds does,
// reusing the arena's nodes and engine. The returned result's Values,
// Complete and FinishSteps slices alias per-node session backing that the
// arena's next execution reuses; callers that retain them across trials must
// copy.
func (a *Arena) RunRounds(asn sim.Assignment, source sim.NodeID, rounds [][]int64, seed int64, cfg SessionConfig) (*SessionResult, error) {
	n := asn.Nodes()
	if len(rounds) == 0 {
		return nil, errors.New("cogcomp: session needs at least one round")
	}
	for r, inputs := range rounds {
		if len(inputs) != n {
			return nil, fmt.Errorf("cogcomp: round %d has %d inputs for %d nodes", r, len(inputs), n)
		}
	}
	nodes, eng, l, err := a.Prepare(asn, source, rounds[0], seed, Config{
		Kappa: cfg.Kappa, Func: cfg.Func, Check: cfg.Check,
		Shards: cfg.Shards, Sparse: cfg.Sparse, Context: cfg.Context,
	}, nil)
	if err != nil {
		return nil, err
	}
	roundSteps := cfg.RoundSteps
	if roundSteps == 0 {
		roundSteps = n + l + 16
	}
	for i, nd := range nodes {
		for r := range rounds {
			nd.rounds = append(nd.rounds, rounds[r][i])
		}
		nd.roundSteps = roundSteps
		if sim.NodeID(i) == source {
			for r := 0; r < len(rounds); r++ {
				nd.results = append(nd.results, nil)
				nd.completeRound = append(nd.completeRound, false)
				nd.finishSteps = append(nd.finishSteps, -1)
			}
		}
	}
	setup := 2*l + n
	budget := setup + 3*roundSteps*len(rounds) + 3
	total, err := eng.Run(budget)
	if err != nil && !errors.Is(err, sim.ErrMaxSlots) {
		return nil, err
	}

	src := nodes[source]
	res := &SessionResult{
		Values:      src.results,
		Complete:    src.completeRound,
		TotalSlots:  total,
		SetupSlots:  setup,
		RoundSlots:  3 * roundSteps,
		FinishSteps: src.finishSteps,
	}
	if cfg.Check {
		if err := a.checker.Err(); err != nil {
			return nil, fmt.Errorf("cogcomp: slot oracle (%d violations): %w", a.checker.Violations(), err)
		}
		for r := range res.Values {
			if !res.Complete[r] {
				continue
			}
			if want := aggfunc.Fold(src.f, rounds[r]); !invariant.AggEqual(res.Values[r], want) {
				return nil, fmt.Errorf("cogcomp: round %d aggregate %v diverges from ground truth %v (%s over n=%d)",
					r, res.Values[r], want, src.f.Name(), n)
			}
		}
	}
	for r := range res.Complete {
		if !res.Complete[r] {
			return res, fmt.Errorf("cogcomp: round %d incomplete within its %d-step window", r, roundSteps)
		}
	}
	return res, nil
}
