package cogcomp_test

import (
	"runtime"
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcomp"
)

// TestCensusAllocPerNodeFlat holds a sparse, unobserved COGCOMP run's
// allocation per node nearly flat in n. The census delivers Θ(m²) entries
// per channel of m members; storing them as one shared log per channel and
// one bit per entry per listener keeps that traffic from showing up as
// per-node memory, which a private roster copy per listener (Θ(m) entries
// each) would grow linearly with n.
//
// The ceiling at n = 4000 pins the phase-one log to the slots phase three
// replays (a won broadcast or the informing listen, a few per node): a log
// entry per node per phase-one slot read about 6.3 KB/node here, the
// compact log about 1.6 KB/node.
func TestCensusAllocPerNodeFlat(t *testing.T) {
	perNode := func(n int) float64 {
		asn, err := assign.SharedCore(n, 16, 4, 48, assign.LocalLabels, 29)
		if err != nil {
			t.Fatal(err)
		}
		inputs := trialInputs(n, 0)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := new(cogcomp.Arena).Run(asn, 0, inputs, 29, cogcomp.Config{Sparse: true}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	small, large := perNode(1000), perNode(4000)
	t.Logf("bytes/node: n=1000 %.0f, n=4000 %.0f (ratio %.2f)", small, large, large/small)
	if large > 1.3*small {
		t.Errorf("allocation per node grew %.2fx from n=1000 to n=4000 (%.0f -> %.0f B), want <= 1.3x", large/small, small, large)
	}
	if large > 2500 {
		t.Errorf("n=4000 allocates %.0f B/node, want <= 2500", large)
	}
}
