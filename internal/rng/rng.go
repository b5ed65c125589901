// Package rng provides deterministic seed derivation for simulations.
//
// Every entity in a simulation (the engine, each node, each trial of an
// experiment) needs its own independent random stream, yet the whole run
// must be reproducible from a single root seed. Deriving child seeds by
// simple arithmetic (seed+i) produces badly correlated math/rand streams;
// instead we mix identifiers through SplitMix64, the finalizer used to seed
// xoshiro-family generators, which decorrelates even adjacent inputs.
//
// Stream contract: every generator New returns draws exactly the values
// rand.New(rand.NewSource(Derive(seed, ids...))) would, call for call, so
// tables and traces do not depend on how the generator is seeded. Only the
// seeding differs: the package's own rand.Source64 (source.go) derives each
// of the 607 state words independently from a table of Lehmer multipliers
// and computes a word only when a draw first reads it, instead of walking
// math/rand's serial 1,841-step seeding chain. Lazy-word invariant: after a
// seed, draws 1–273 read only words no draw has written, so they keep no
// state (a generator that draws d ≤ 273 values computes 2d words and is one
// 64-byte allocation); draw 274 writes the state back into the 607-word
// array, which is allocated then, once per generator, and kept across
// reseeds.
//
// The source comes in two shapes, with one stream:
//   - New and Reseed return a *rand.Rand: every math/rand method, reached
//     through the Source64 interface. Use it where a caller needs more than
//     Intn (Shuffle, Perm, PermInto, Float64), as assign.Builder does, or
//     draws too rarely for the call chain to matter.
//   - Stream is a 16-byte value with Reseed and Intn only, and Intn calls
//     the source directly. Embed it by value in a type that draws Intn on a
//     per-slot path: a protocol node, the engine's tie-break. It costs no
//     allocation of its own, and s.Reseed(seed, ids...) followed by Intn
//     draws what New(seed, ids...).Intn would.
package rng

import "math/rand"

// splitMix64 advances a SplitMix64 state and returns the next output.
// See Steele, Lea, Flood: "Fast splittable pseudorandom number generators"
// (OOPSLA 2014). It is a bijective finalizer with strong avalanche behavior.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Derive mixes a root seed with a sequence of stream identifiers and returns
// a child seed. Derive(s, a, b) and Derive(s, a, c) are decorrelated for
// b != c, and Derive is deterministic in all arguments.
func Derive(seed int64, ids ...int64) int64 {
	x := uint64(seed)
	for _, id := range ids {
		x = splitMix64(x ^ splitMix64(uint64(id)))
	}
	return int64(splitMix64(x))
}

// Uniform01 returns a deterministic pseudo-uniform float64 in [0, 1)
// derived from the seed and ids — a one-shot draw that avoids constructing
// a rand.Rand when a single decision is needed (e.g. per-slot fault coins).
func Uniform01(seed int64, ids ...int64) float64 {
	return float64(uint64(Derive(seed, ids...))>>11) / float64(1<<53)
}

// New returns a rand.Rand seeded by Derive(seed, ids...). Each returned
// generator is private to the caller and must not be shared across
// goroutines without synchronization.
func New(seed int64, ids ...int64) *rand.Rand {
	g := new(generator)
	g.src.Seed(Derive(seed, ids...))
	g.Rand = *rand.New(&g.src)
	return &g.Rand
}

// generator holds a rand.Rand and its source in one 64-byte allocation.
// rand.New's result is copied out because a Rand has no other constructor;
// it holds no lock and no pointer to itself, so the copy is the same Rand.
type generator struct {
	rand.Rand
	src source
}

// Reseed re-seeds r so that its subsequent draws are exactly those of a
// fresh New(seed, ids...), and returns r. A nil r is allowed: Reseed then
// returns New(seed, ids...), so a caller keeping one generator across
// regenerations writes g = Reseed(g, ...) with no first-use branch. For a
// generator from New this costs O(1): the source only records the seed, and
// each later draw computes the state words it reads first. Reusing one
// generator this way lets trial arenas and per-slot re-draws regenerate
// their streams without allocating a new generator per entity while keeping
// every stream byte-identical to the fresh path.
func Reseed(r *rand.Rand, seed int64, ids ...int64) *rand.Rand {
	if r == nil {
		return New(seed, ids...)
	}
	r.Seed(Derive(seed, ids...))
	return r
}

// PermInto writes a pseudo-random permutation of [0, n) into dst (grown if
// its capacity is short) and returns dst[:n]. The algorithm mirrors
// rand.Rand.Perm exactly, so the values produced and the draws consumed from
// r are identical to r.Perm(n) — the function exists so hot setup paths can
// reuse one backing array across regenerations.
func PermInto(r *rand.Rand, dst []int, n int) []int {
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	// The i=0 iteration is kept even though it always writes 0: Intn(1)
	// consumes a draw, and skipping it would shift every later stream.
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
	return dst
}
