package invariant

import "github.com/cogradio/crn/internal/sim"

// BitmapRows reports whether CheckAssignment keeps a's sets in bitmap rows
// rather than hash rows.
func BitmapRows(a sim.Assignment) bool {
	var t memberTable
	t.reset(0, a.PerNode(), a.Channels())
	return t.words > 0
}
