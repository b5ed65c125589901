// Package aggfunc defines the associative aggregation functions COGCOMP
// computes over the distribution tree. The paper's Section 5 discussion
// observes that for associative functions each node can merge its
// children's partial aggregates locally and forward a constant-size
// outcome, keeping messages O(polylog n); the Collect function represents
// the opposite regime (gather every raw value) and is used to measure the
// message-size gap (experiment E14).
package aggfunc

import (
	"fmt"

	"github.com/cogradio/crn/internal/sim"
)

// Value is a partial aggregate flowing up the tree. Concrete types are
// defined by each Func; callers treat values as opaque and immutable.
type Value any

// Func is an associative aggregation function with an identified leaf
// embedding. Merge must be associative and commutative over the values
// produced by Leaf and Merge.
type Func interface {
	// Name identifies the function in reports.
	Name() string
	// Leaf lifts a node's raw input into a partial aggregate.
	Leaf(id sim.NodeID, input int64) Value
	// Merge combines two partial aggregates.
	Merge(a, b Value) Value
	// Size returns the abstract wire size of a value, in words. Used for
	// message-overhead accounting, not for simulation semantics.
	Size(v Value) int
}

// Sum aggregates the sum of all inputs. Its Value is int64.
type Sum struct{}

// Name implements Func.
func (Sum) Name() string { return "sum" }

// Leaf implements Func.
func (Sum) Leaf(_ sim.NodeID, input int64) Value { return input }

// Merge implements Func.
func (Sum) Merge(a, b Value) Value { return a.(int64) + b.(int64) }

// Size implements Func.
func (Sum) Size(Value) int { return 1 }

// Count counts participating nodes. Its Value is int64.
type Count struct{}

// Name implements Func.
func (Count) Name() string { return "count" }

// Leaf implements Func.
func (Count) Leaf(sim.NodeID, int64) Value { return int64(1) }

// Merge implements Func.
func (Count) Merge(a, b Value) Value { return a.(int64) + b.(int64) }

// Size implements Func.
func (Count) Size(Value) int { return 1 }

// Min aggregates the minimum input. Its Value is int64.
type Min struct{}

// Name implements Func.
func (Min) Name() string { return "min" }

// Leaf implements Func.
func (Min) Leaf(_ sim.NodeID, input int64) Value { return input }

// Merge implements Func.
func (Min) Merge(a, b Value) Value {
	if x, y := a.(int64), b.(int64); x < y {
		return x
	}
	return b
}

// Size implements Func.
func (Min) Size(Value) int { return 1 }

// Max aggregates the maximum input. Its Value is int64.
type Max struct{}

// Name implements Func.
func (Max) Name() string { return "max" }

// Leaf implements Func.
func (Max) Leaf(_ sim.NodeID, input int64) Value { return input }

// Merge implements Func.
func (Max) Merge(a, b Value) Value {
	if x, y := a.(int64), b.(int64); x > y {
		return x
	}
	return b
}

// Size implements Func.
func (Max) Size(Value) int { return 1 }

// StatsValue is the partial aggregate of Stats: enough moments for
// count/sum/min/max (and hence mean) in one constant-size message.
type StatsValue struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
}

// Mean returns the running mean.
func (s StatsValue) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Stats aggregates count, sum, min and max simultaneously — the "network
// condition snapshot" style aggregate the paper's introduction motivates.
type Stats struct{}

// Name implements Func.
func (Stats) Name() string { return "stats" }

// Leaf implements Func.
func (Stats) Leaf(_ sim.NodeID, input int64) Value {
	return StatsValue{Count: 1, Sum: input, Min: input, Max: input}
}

// Merge implements Func.
func (Stats) Merge(a, b Value) Value {
	x, y := a.(StatsValue), b.(StatsValue)
	out := StatsValue{Count: x.Count + y.Count, Sum: x.Sum + y.Sum, Min: x.Min, Max: x.Max}
	if y.Min < out.Min {
		out.Min = y.Min
	}
	if y.Max > out.Max {
		out.Max = y.Max
	}
	return out
}

// Size implements Func.
func (Stats) Size(Value) int { return 4 }

// Entry is one raw reading inside a Collect value.
type Entry struct {
	ID    sim.NodeID
	Input int64
}

// Collect gathers every (node, input) pair — the non-associative-style
// "ship all raw data" aggregate. Its Value is []Entry and message size
// grows linearly in subtree size.
type Collect struct{}

// Name implements Func.
func (Collect) Name() string { return "collect" }

// Leaf implements Func.
func (Collect) Leaf(id sim.NodeID, input int64) Value {
	return []Entry{{ID: id, Input: input}}
}

// Merge implements Func.
func (Collect) Merge(a, b Value) Value {
	x, y := a.([]Entry), b.([]Entry)
	out := make([]Entry, 0, len(x)+len(y))
	out = append(out, x...)
	out = append(out, y...)
	return out
}

// Size implements Func.
func (Collect) Size(v Value) int { return 2 * len(v.([]Entry)) }

// Verify that every function satisfies Func.
var (
	_ Func = Sum{}
	_ Func = Count{}
	_ Func = Min{}
	_ Func = Max{}
	_ Func = Stats{}
	_ Func = Collect{}
)

// ByName returns the function with the given name; the empty name means
// sum.
func ByName(name string) (Func, error) {
	switch name {
	case "sum", "":
		return Sum{}, nil
	case "count":
		return Count{}, nil
	case "min":
		return Min{}, nil
	case "max":
		return Max{}, nil
	case "stats":
		return Stats{}, nil
	case "collect":
		return Collect{}, nil
	default:
		return nil, fmt.Errorf("aggfunc: unknown function %q", name)
	}
}

// Fold computes the reference aggregate of all inputs directly — the ground
// truth tests compare COGCOMP's result against.
func Fold(f Func, inputs []int64) Value {
	if len(inputs) == 0 {
		return nil
	}
	acc := f.Leaf(0, inputs[0])
	for i := 1; i < len(inputs); i++ {
		acc = f.Merge(acc, f.Leaf(sim.NodeID(i), inputs[i]))
	}
	return acc
}
