package assign_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/jamming"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/spectrum"
)

// TestSlotVaryingStreams pins the channel sets of every slot-varying
// assignment draw for draw: it hashes ChannelSet(u, s) for every node over
// slots 0–63. A change to how these assignments seed or consume their
// per-slot generators moves a digest, even where no table would notice.
func TestSlotVaryingStreams(t *testing.T) {
	const n = 12
	cases := []struct {
		name string
		want string
		make func() (sim.Assignment, error)
	}{
		{"dynamic", "8a2f6a3289d770315406ba8645fbb8a510c2596794d2508f6076bc5cd3e9d08f",
			func() (sim.Assignment, error) { return assign.NewDynamic(n, 5, 2, 16, 7) }},
		{"flipping", "0c6fa6163e1c48a7af74cd40c1205638a362f65746b4b6e67fba1d20a0f3a3ed",
			func() (sim.Assignment, error) { return assign.NewFlipping(n, 5, 2, 16, 7, []int{5, 17, 40}) }},
		{"jammed random", "257d38aace4b639c8e78bd1b4f6060a29ee1a6045b2cf40e405f72bcdfd8b126",
			func() (sim.Assignment, error) {
				return jamming.NewAssignment(n, 8, 3, jamming.NewRandomJammer(8, 3, 9), 11)
			}},
		{"jammed sweep", "eec0ece0395ea54887d345b4cafb6a6309c51eef3d0bc14d60a981916e4e0413",
			func() (sim.Assignment, error) {
				return jamming.NewAssignment(n, 8, 3, jamming.NewSweepJammer(8, 3), 11)
			}},
		{"spectrum", "5a8ba306dd1d6f719c787f1876086dbdc50fbca1bbcd6ab4cc7b655c758da0f9",
			func() (sim.Assignment, error) {
				return spectrum.New(spectrum.Config{Nodes: n, Channels: 10, Pilots: 2,
					PBusy: 0.3, PFree: 0.4, MissProb: 0.2, Seed: 13})
			}},
	}
	for _, tc := range cases {
		asn, err := tc.make()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		var buf [8]byte
		put := func(v int) {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
		for s := 0; s < 64; s++ {
			for u := 0; u < n; u++ {
				set := asn.ChannelSet(sim.NodeID(u), s)
				put(len(set))
				for _, ch := range set {
					put(ch)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: channel-set digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
