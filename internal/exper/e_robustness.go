package exper

import (
	"errors"
	"fmt"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/baseline"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/faults"
	"github.com/cogradio/crn/internal/metrics"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/spectrum"
	"github.com/cogradio/crn/internal/stats"
	"github.com/cogradio/crn/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "E20",
		Title: "Fault robustness: COGCAST vs COGCOMP under temporary outages",
		Claim: "Section 1: COGCAST's stateless per-slot behavior 'gracefully handles temporary faults'; the structured COGCOMP phases, by contrast, stall or corrupt under the same outages — which is why the simple primitive is the robust building block.",
		Run:   runE20,
	})
	register(Experiment{
		ID:    "E21",
		Title: "Medium utilization: why the epidemic wins",
		Claim: "Mechanism behind E3's factor-c gap: COGCAST fills the medium (many concurrent relays, high listener delivery rate) while rendezvous broadcast leaves all but one channel silent.",
		Run:   runE21,
	})
	register(Experiment{
		ID:    "E22",
		Title: "Primary-user-driven spectrum (physically motivated dynamics)",
		Claim: "COGCAST over a Markov primary-user occupancy model with a pilot band never fails; completion time varies only mildly with occupancy and sensing errors — heavy occupancy concentrates devices on fewer channels, which can even accelerate the epidemic (dynamic-model guarantee, Theorem 4 discussion).",
		Run:   runE22,
	})
}

func runE20(cfg Config) ([]*Table, error) {
	const n, c, k = 32, 8, 2
	rates := []float64{0, 0.01, 0.03}
	if cfg.Quick {
		rates = []float64{0, 0.03}
	}
	const duration = 10
	t := &Table{
		Title:   fmt.Sprintf("E20: temporary outages (duration %d slots, source protected; n=%d, c=%d, k=%d, partitioned)", duration, n, c, k),
		Claim:   "COGCAST completes at every rate; COGCOMP deviates (stall or wrong aggregate) as the rate grows",
		Columns: []string{"outage rate/slot", "COGCAST completions", "COGCAST median slots", "COGCOMP exact", "COGCOMP stalled", "COGCOMP corrupted"},
	}
	trials := cfg.trials()
	type outageResult struct {
		castDone  bool
		castSlots float64
		// comp outcome: exactly one of these is true per trial.
		exact, stalled, corrupted bool
	}
	for _, rate := range rates {
		results, err := forTrials(cfg, trials, func(trial int, a *arena) (outageResult, error) {
			var out outageResult
			ts := rng.Derive(cfg.Seed, int64(rate*1000), int64(trial), 200)
			schedule, err := faults.NewRandomOutages(rate, duration, ts, 0)
			if err != nil {
				return out, err
			}
			asn, err := a.assign.Partitioned(n, c, k, assign.LocalLabels, ts)
			if err != nil {
				return out, err
			}
			if cfg.Trace != nil {
				cfg.Trace.Emit(trace.TrialEvent(trial, ts))
			}

			// COGCAST under faults.
			castNodes := make([]*cogcast.Node, n)
			protos := make([]sim.Protocol, n)
			for i := range castNodes {
				castNodes[i] = cogcast.New(sim.View(asn, sim.NodeID(i)), i == 0, "m", ts)
				protos[i] = faults.Wrap(castNodes[i], sim.NodeID(i), schedule, faults.WithTrace(cfg.Trace))
			}
			eng, err := sim.NewEngine(asn, protos, ts)
			if err != nil {
				return out, err
			}
			informed := func() bool {
				for _, nd := range castNodes {
					if !nd.Informed() {
						return false
					}
				}
				return true
			}
			if _, err := eng.RunWhile(200000, func() bool { return !informed() }); err != nil && !errors.Is(err, sim.ErrMaxSlots) {
				return out, err
			}
			if informed() {
				out.castDone = true
				out.castSlots = float64(eng.Slot())
			}

			// COGCOMP under the same faults.
			inputs := make([]int64, n)
			var want int64
			for i := range inputs {
				inputs[i] = int64(i + 1)
				want += inputs[i]
			}
			l := cogcomp.PhaseOneLength(n, c, k, cogcast.DefaultKappa)
			res, err := a.comp.RunWith(asn, 0, inputs, ts, cogcomp.Config{MaxSlots: 20 * (2*l + n)},
				func(id sim.NodeID, nd *cogcomp.Node) sim.Protocol {
					return faults.Wrap(nd, id, schedule, faults.WithTrace(cfg.Trace))
				})
			switch {
			case errors.Is(err, sim.ErrMaxSlots):
				out.stalled = true
			case err != nil && !errors.Is(err, cogcomp.ErrIncomplete):
				return out, err
			case res.Value == aggfunc.Value(want):
				out.exact = true
			default:
				out.corrupted = true
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		castDone := 0
		castSlots := make([]float64, 0, trials)
		exact, stalled, corrupted := 0, 0, 0
		for _, r := range results {
			if r.castDone {
				castDone++
				castSlots = append(castSlots, r.castSlots)
			}
			switch {
			case r.exact:
				exact++
			case r.stalled:
				stalled++
			case r.corrupted:
				corrupted++
			}
		}
		slotCell := "-"
		if len(castSlots) > 0 {
			s, err := stats.Summarize(castSlots)
			if err != nil {
				return nil, err
			}
			slotCell = ftoa(s.Median)
		}
		t.AddRow(ftoa(rate), fmt.Sprintf("%d/%d", castDone, trials), slotCell,
			itoa(exact), itoa(stalled), itoa(corrupted))
		if castDone < trials {
			t.AddNote("UNEXPECTED: COGCAST failed to complete at rate %.2f", rate)
		}
	}
	return []*Table{t}, nil
}

func runE21(cfg Config) ([]*Table, error) {
	const n, c, k = 64, 16, 2
	t := &Table{
		Title:   fmt.Sprintf("E21: medium utilization, COGCAST vs rendezvous broadcast (n=%d, c=%d, k=%d, partitioned)", n, c, k),
		Claim:   "the epidemic's concurrent relays dominate the single transmitting source",
		Columns: []string{"algorithm", "median slots", "busy channels/slot", "broadcasts/slot", "delivery rate", "collision rate"},
	}
	trials := cfg.trials()

	type row struct {
		slots []float64
		m     metrics.Metrics
	}
	type utilResult struct {
		cogSlots, rdvSlots float64
		cogM, rdvM         metrics.Metrics
	}
	results, err := forTrials(cfg, trials, func(trial int, a *arena) (utilResult, error) {
		ts := rng.Derive(cfg.Seed, int64(trial), 210)
		asn, err := a.assign.Partitioned(n, c, k, assign.LocalLabels, ts)
		if err != nil {
			return utilResult{}, err
		}
		var cm metrics.Collector
		cres, err := a.cast.Run(asn, 0, "m", ts, cfg.cast(cogcast.RunConfig{
			UntilAllInformed: true, MaxSlots: 1_000_000, Observer: &cm,
		}))
		if err != nil {
			return utilResult{}, err
		}
		if !cres.AllInformed {
			return utilResult{}, fmt.Errorf("exper: E21 COGCAST incomplete")
		}

		var rm metrics.Collector
		rres, err := baseline.RendezvousBroadcast(asn, 0, "m", ts, 4_000_000, sim.WithObserver(&rm))
		if err != nil {
			return utilResult{}, err
		}
		if !rres.AllInformed {
			return utilResult{}, fmt.Errorf("exper: E21 rendezvous incomplete")
		}
		return utilResult{
			cogSlots: float64(cres.Slots), rdvSlots: float64(rres.Slots),
			cogM: cm.Snapshot(), rdvM: rm.Snapshot(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var cog, rdv row
	for _, r := range results {
		cog.slots = append(cog.slots, r.cogSlots)
		cog.m = accumulate(cog.m, r.cogM, trials)
		rdv.slots = append(rdv.slots, r.rdvSlots)
		rdv.m = accumulate(rdv.m, r.rdvM, trials)
	}
	for _, entry := range []struct {
		name string
		r    row
	}{{"COGCAST", cog}, {"rendezvous", rdv}} {
		s, err := stats.Summarize(entry.r.slots)
		if err != nil {
			return nil, err
		}
		m := entry.r.m
		t.AddRow(entry.name, ftoa(s.Median), ftoa(m.BusyChannelsPerSlot), ftoa(m.BroadcastsPerSlot),
			ftoa(m.DeliveryRate), ftoa(m.CollisionRate))
	}
	t.AddNote("rendezvous has at most one busy channel per slot by construction; COGCAST approaches min{k, informed} once the epidemic saturates the core")
	return []*Table{t}, nil
}

// accumulate averages metrics across trials incrementally.
func accumulate(acc, next metrics.Metrics, trials int) metrics.Metrics {
	w := 1 / float64(trials)
	acc.Slots += next.Slots
	acc.BusyChannelsPerSlot += next.BusyChannelsPerSlot * w
	acc.BroadcastsPerSlot += next.BroadcastsPerSlot * w
	acc.DeliveryRate += next.DeliveryRate * w
	acc.CollisionRate += next.CollisionRate * w
	return acc
}

func runE22(cfg Config) ([]*Table, error) {
	const nodes, channels, pilots = 32, 24, 2
	type point struct {
		label        string
		pBusy, pFree float64
		miss         float64
	}
	points := []point{
		{"idle spectrum", 0.00, 1.00, 0.00},
		{"light PU load", 0.05, 0.45, 0.02},
		{"heavy PU load", 0.30, 0.10, 0.05},
		{"heavy + bad sensing", 0.30, 0.10, 0.25},
	}
	if cfg.Quick {
		points = points[:2]
	}
	t := &Table{
		Title:   fmt.Sprintf("E22: COGCAST over Markov primary-user spectrum (n=%d, C=%d, %d pilot channels)", nodes, channels, pilots),
		Claim:   "never fails; time varies mildly (concentration can even speed it up)",
		Columns: []string{"regime", "stationary occupancy", "mean free channels/node", "median slots", "completions"},
	}
	trials := cfg.trials()
	type spectrumResult struct {
		done    bool
		slots   float64
		freeSum float64
	}
	for _, p := range points {
		results, err := forTrials(cfg, trials, func(trial int, a *arena) (spectrumResult, error) {
			var out spectrumResult
			ts := rng.Derive(cfg.Seed, int64(trial), int64(p.pBusy*100), 220)
			model, err := spectrum.New(spectrum.Config{
				Nodes: nodes, Channels: channels, Pilots: pilots,
				PBusy: p.pBusy, PFree: p.pFree, MissProb: p.miss, Seed: ts,
			})
			if err != nil {
				return out, err
			}
			res, err := a.cast.Run(model, 0, "m", ts, cfg.cast(cogcast.RunConfig{UntilAllInformed: true, MaxSlots: 500000}))
			if err != nil {
				return out, err
			}
			if res.AllInformed {
				out.done = true
				out.slots = float64(res.Slots)
			}
			for s := 50; s < 60; s++ {
				out.freeSum += float64(len(model.ChannelSet(0, s)))
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		slots := make([]float64, 0, trials)
		done := 0
		var freeSum float64
		var freeSamples int
		for _, r := range results {
			if r.done {
				done++
				slots = append(slots, r.slots)
			}
			freeSum += r.freeSum
			freeSamples += 10
		}
		s, err := stats.Summarize(slots)
		if err != nil {
			return nil, err
		}
		occ := 0.0
		if p.pBusy+p.pFree > 0 {
			occ = p.pBusy / (p.pBusy + p.pFree)
		}
		t.AddRow(p.label, ftoa(occ), ftoa(freeSum/float64(freeSamples)), ftoa(s.Median), fmt.Sprintf("%d/%d", done, trials))
		if done < trials {
			t.AddNote("UNEXPECTED: incomplete runs in regime %q", p.label)
		}
	}
	t.AddNote("mean free channels tracks pilots + (C-pilots)·(1-occupancy)·(1-miss)")
	return []*Table{t}, nil
}
