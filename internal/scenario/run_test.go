package scenario

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/cogradio/crn/internal/sim"
)

// TestSlotCapsEnforced: every protocol honours protocol.max_slots and
// limits.max_slots, the smaller one winning, and reports at most that many
// slots. COGCOMP fails at the cap with the engine's budget error, which
// carries the slot count. Sessions have no slot budget and reject one.
func TestSlotCapsEnforced(t *testing.T) {
	caps := []struct {
		name          string
		budget, limit int
		want          int
	}{
		{"limit", 0, 3, 3},
		{"budget", 2, 0, 2},
		{"limit below budget", 5, 3, 3},
	}
	for _, proto := range []string{"cogcast", "cogcomp", "gossip", "rendezvous", "rendezvous-agg", "hop"} {
		for _, c := range caps {
			t.Run(proto+"/"+c.name, func(t *testing.T) {
				sc := &Scenario{
					Name: "cap",
					Topology: Topology{
						Nodes: 16, ChannelsPerNode: 4, MinOverlap: 1, Generator: "shared-core",
					},
					Protocol: Protocol{Name: proto, MaxSlots: c.budget},
					Limits:   Limits{MaxSlots: c.limit},
				}
				if proto == "hop" {
					sc.Topology.Labels = "global"
				}
				sc.Normalize()
				if err := sc.Validate(); err != nil {
					t.Fatal(err)
				}
				oc, err := sc.Execute(io.Discard)
				if proto == "cogcomp" {
					if !errors.Is(err, sim.ErrMaxSlots) || !strings.Contains(err.Error(), fmt.Sprintf("after %d slots", c.want)) {
						t.Fatalf("err = %v, want the slot budget error after %d slots", err, c.want)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if oc.Slots > c.want {
					t.Fatalf("ran %d slots, cap %d", oc.Slots, c.want)
				}
			})
		}
	}
	sc := &Scenario{
		Name:     "cap",
		Topology: Topology{Nodes: 16, ChannelsPerNode: 4, MinOverlap: 1, Generator: "shared-core"},
		Protocol: Protocol{Name: "session"},
		Limits:   Limits{MaxSlots: 7},
	}
	sc.Normalize()
	if _, err := sc.Execute(io.Discard); err == nil || !strings.Contains(err.Error(), "MaxSlots") {
		t.Fatalf("session under a slot cap: err = %v, want the MaxSlots rejection", err)
	}
}
