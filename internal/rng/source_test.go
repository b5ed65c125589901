package rng

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// edgeSeeds are the seeds where math/rand's seed normalization changes
// case: 0 and its substitute 89482311, signs, multiples of the Lehmer
// modulus 2³¹−1 (which normalize to 0) and the int64 extremes.
var edgeSeeds = []int64{
	0, 89482311, 1, -1,
	int32max, -int32max, 2 * int32max,
	math.MinInt64, math.MaxInt64,
}

// lazyBoundaries are draw counts around the points where the lazy path
// changes case: the last draw without state (273), the draw that writes the
// state back (274), the last that computes a word (334), and a full state
// turn (607).
var lazyBoundaries = []int{0, 1, 272, 273, 274, 333, 334, 335, 607, 608}

const streamDraws = 5000

// mixedStream makes draws calls on r, cycling through every rand.Rand
// method family the simulator uses, and returns the values produced.
func mixedStream(r *rand.Rand, draws int) []int64 {
	out := make([]int64, 0, 2*draws)
	for i := 0; i < draws; i++ {
		switch i % 5 {
		case 0:
			out = append(out, r.Int63())
		case 1:
			out = append(out, int64(r.Uint64()))
		case 2:
			out = append(out, int64(r.Intn(i%1000+1)))
		case 3:
			a := []int64{1, 2, 3, 4, 5, 6, 7}
			r.Shuffle(len(a), func(x, y int) { a[x], a[y] = a[y], a[x] })
			out = append(out, a...)
		case 4:
			for _, v := range r.Perm(i%9 + 1) {
				out = append(out, int64(v))
			}
		}
	}
	return out
}

// sameStream fails t unless got and want produce the same mixed stream.
// Both streams have the same length: mixedStream's shape depends only on
// draws.
func sameStream(t *testing.T, name string, got, want *rand.Rand) {
	t.Helper()
	g, w := mixedStream(got, streamDraws), mixedStream(want, streamDraws)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: value %d differs: got %d, math/rand %d", name, i, g[i], w[i])
		}
	}
}

func stdlib(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSourceMatchesMathRand(t *testing.T) {
	// A fresh source, then one warm source stopped after exactly k raw
	// draws and reseeded, so every case of the lazy path is left part-way
	// through.
	warm, want := rand.New(new(source)), stdlib(0)
	for i, seed := range edgeSeeds {
		fresh := new(source)
		fresh.Seed(seed)
		sameStream(t, "fresh", rand.New(fresh), stdlib(seed))
		next := edgeSeeds[(i+1)%len(edgeSeeds)]
		for _, k := range lazyBoundaries {
			warm.Seed(seed)
			want.Seed(seed)
			for d := 0; d < k; d++ {
				if g, w := warm.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: got %d, math/rand %d", seed, d+1, g, w)
				}
			}
			warm.Seed(next)
			want.Seed(next)
			sameStream(t, "reseeded", warm, want)
		}
	}
}

func TestNewAndReseedMatchMathRand(t *testing.T) {
	warm := New(3)
	warm.Int63()
	for _, seed := range edgeSeeds {
		for _, id := range []int64{0, 0x5c1, 0x1ab} {
			want := Derive(seed, id)
			sameStream(t, "New", New(seed, id), stdlib(want))
			Reseed(warm, seed, id)
			sameStream(t, "Reseed", warm, stdlib(want))
		}
	}
}

func TestReseedDrawAllocFree(t *testing.T) {
	r := New(1)
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		Reseed(r, seed, 0x5c1)
		for i := 0; i < 700; i++ {
			drawSink += r.Intn(1000)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Reseed + 700 draws allocated %v times, want 0", allocs)
	}
}

// intnBounds are Intn bounds that reach every branch of math/rand's Intn:
// 1, powers of two (masked), bounds whose rejection loop discards about a
// quarter of the raw draws (3·2²⁹+1 and 3·2⁶¹+1), and bounds above 2³¹−1,
// which go through Int63n instead of Int31n where int has 64 bits.
var intnBounds = func() (bs []int) {
	for _, b := range []int64{
		1, 2, 1 << 10, 1 << 30, 7, 1000, 3<<29 + 1, 1<<31 - 1,
		1 << 31, 1<<31 + 1, 1 << 62, 3<<61 + 1, math.MaxInt64,
	} {
		if b <= math.MaxInt {
			bs = append(bs, int(b))
		}
	}
	return bs
}()

// sameIntn fails t unless s and r return the same value for each of draws
// calls of Intn(bound). The stream contract is value for value, so a Stream that
// consumed a different number of raw draws would diverge within a few
// calls.
func sameIntn(t *testing.T, name string, s *Stream, r *rand.Rand, bound, draws int) {
	t.Helper()
	for d := 0; d < draws; d++ {
		if g, w := s.Intn(bound), r.Intn(bound); g != w {
			t.Fatalf("%s: Intn(%d) call %d: Stream %d, math/rand %d", name, bound, d+1, g, w)
		}
	}
}

func TestStreamMatchesMathRand(t *testing.T) {
	// Each bound from a fresh seed for 700 calls, which carries the raw
	// draw count past the lazy boundaries 273, 274 and 334 whatever the
	// rejection rate, then from a stream reseeded part-way through.
	var s Stream
	for i, seed := range edgeSeeds {
		next := edgeSeeds[(i+1)%len(edgeSeeds)]
		for _, bound := range intnBounds {
			s.Reseed(seed, 0xca57)
			sameIntn(t, "fresh", &s, stdlib(Derive(seed, 0xca57)), bound, 700)
			for _, k := range lazyBoundaries {
				s.Reseed(seed)
				want := stdlib(Derive(seed))
				sameIntn(t, "before reseed", &s, want, bound, k)
				s.Reseed(next, 0x5e5)
				want.Seed(Derive(next, 0x5e5))
				sameIntn(t, "reseeded", &s, want, bound, 400)
			}
		}
	}
}

func TestStreamIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, math.MinInt} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			var s Stream
			s.Reseed(1)
			s.Intn(n)
		}()
	}
}

// FuzzSource compares the source with math/rand over arbitrary seeds and
// draw counts, reseeding to ^seed after reseedAt draws. Beside it, a Stream
// reseeded the same way draws Intn over intnBounds against
// rand.New(rand.NewSource(Derive(…))). The committed corpus
// (testdata/fuzz/FuzzSource) holds the edge seeds, each reseeded at a lazy
// boundary.
func FuzzSource(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint16) {
		s := new(source)
		s.Seed(seed)
		got, want := rand.New(s), stdlib(seed)
		var st Stream
		st.Reseed(seed)
		stWant := stdlib(Derive(seed))
		for i := 0; i < int(draws); i++ {
			if i == int(reseedAt) {
				got.Seed(^seed)
				want.Seed(^seed)
				st.Reseed(^seed, 0xca57)
				stWant.Seed(Derive(^seed, 0xca57))
			}
			bound := intnBounds[i%len(intnBounds)]
			if g, w := st.Intn(bound), stWant.Intn(bound); g != w {
				t.Fatalf("seed %d reseedAt %d call %d: Stream Intn(%d) = %d, math/rand %d", seed, reseedAt, i, bound, g, w)
			}
			var g, w int64
			if i%3 == 2 {
				g, w = int64(got.Intn(i+1)), int64(want.Intn(i+1))
			} else {
				g, w = int64(got.Uint64()), int64(want.Uint64())
			}
			if g != w {
				t.Fatalf("seed %d reseedAt %d draw %d: got %d, math/rand %d", seed, reseedAt, i, g, w)
			}
		}
		if g, w := got.Perm(8), want.Perm(8); !slices.Equal(g, w) {
			t.Fatalf("seed %d: Perm after %d draws: got %v, math/rand %v", seed, draws, g, w)
		}
	})
}

var drawSink int

// benchReseedDraw measures what a per-node generator costs on the setup
// paths: reseed a warm generator, then make d Intn draws. rng is this
// package's source; math-rand is the stdlib source reseeded the same way.
func benchReseedDraw(b *testing.B, d int) {
	run := func(b *testing.B, r *rand.Rand) {
		sum := 0
		for i := 0; i < b.N; i++ {
			r.Seed(Derive(int64(i), 0x5c1))
			for j := 0; j < d; j++ {
				sum += r.Intn(1000)
			}
		}
		drawSink = sum
	}
	b.Run("rng", func(b *testing.B) { run(b, New(1)) })
	b.Run("math-rand", func(b *testing.B) { run(b, stdlib(1)) })
}

// BenchmarkIntn measures one per-slot draw, Intn(c) for a channel count c
// that is not a power of two: through a generator from New (rand) and
// through a Stream (stream).
func BenchmarkIntn(b *testing.B) {
	const c = 96
	b.Run("rand", func(b *testing.B) {
		r, sum := New(1), 0
		for i := 0; i < b.N; i++ {
			sum += r.Intn(c)
		}
		drawSink = sum
	})
	b.Run("stream", func(b *testing.B) {
		var s Stream
		s.Reseed(1)
		sum := 0
		for i := 0; i < b.N; i++ {
			sum += s.Intn(c)
		}
		drawSink = sum
	})
}

func BenchmarkReseedDraw16(b *testing.B)  { benchReseedDraw(b, 16) }
func BenchmarkReseedDraw44(b *testing.B)  { benchReseedDraw(b, 44) }
func BenchmarkReseedDraw607(b *testing.B) { benchReseedDraw(b, 607) }

func TestStateAllocatedPastDraw273(t *testing.T) {
	// A fresh generator is one allocation holding the rand.Rand and a
	// 16-byte source: draws 1–273 need no state, draw 274 allocates it once,
	// and a reseeded generator keeps it.
	for _, c := range []struct{ draws, allocs int }{{0, 1}, {273, 1}, {274, 2}, {700, 2}} {
		got := testing.AllocsPerRun(20, func() {
			r := New(5)
			for i := 0; i < c.draws; i++ {
				r.Uint64()
			}
			Reseed(r, 6)
			for i := 0; i < c.draws; i++ {
				r.Uint64()
			}
		})
		if int(got) != c.allocs {
			t.Errorf("New + Reseed with %d draws each: %v allocs, want %d", c.draws, got, c.allocs)
		}
	}
	// A pointer and two 32-bit words: 16 bytes where pointers are 8, 12
	// on 32-bit targets.
	want := unsafe.Sizeof(uintptr(0)) + 8
	if got := unsafe.Sizeof(source{}); got != want {
		t.Errorf("source is %d B, want %d", got, want)
	}
	if got := unsafe.Sizeof(Stream{}); got != want {
		t.Errorf("Stream is %d B, want %d", got, want)
	}
}
