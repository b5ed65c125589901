package rng

// source is a rand.Source64 whose stream is math/rand's, draw for draw: for
// every seed, Seed followed by any sequence of Int63/Uint64 calls returns
// exactly what rand.NewSource(seed) returns. Both are the Mitchell–Reeds
// additive lagged Fibonacci generator over 607 words; only the seeding
// differs.
//
// math/rand seeds word i as rngCooked[i] XOR three consecutive outputs
// x(21+3i), x(22+3i), x(23+3i) of the Lehmer generator x(t+1) = 48271·x(t)
// mod 2³¹−1, walked serially through 1,841 steps. Since x(t) = 48271^t·x(0),
// source precomputes the powers (seedPow) and derives any word on its own
// with three multiplies, so Seed only records x(0).
//
// Words are then computed on first touch. From a fresh seed, draw d
// (1-based) reads feed word 334−d and tap word 607−d and overwrites the feed
// word. Draws 1–273 read two words that no draw has touched, so they need no
// state at all: each returns word(334−d) + word(607−d). Only draw 274 reads
// a word an earlier draw wrote (the tap word 333, written by draw 1), so it
// writes back what draws 1–273 left in the state, allocating the 607-word
// array if the generator has none yet. Draws 274–334 then compute one new
// feed word each, draw 334 clears x0, and from draw 335 on the draw path is
// math/rand's. A generator that draws d ≤ 273 values after a seed thus
// computes 2d words, and one that never draws more holds 16 bytes of state
// instead of 4.9 KB.
//
// The feed index always trails the tap index by rngTap (mod rngLen), so the
// state keeps only tap.
type source struct {
	vec *[rngLen]int64 // nil until the generator first passes draw 273
	tap int32
	x0  uint32 // the seed's Lehmer start, in [1, 2³¹−2]; 0 once every word is computed
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
)

// seedPow[i][j] is 48271^(21+3i+j) mod 2³¹−1: the multiplier that takes
// the seed to the j-th Lehmer output of word i.
var seedPow = func() (p [rngLen][3]uint32) {
	x := uint64(1)
	for t := 1; t <= 20+3*rngLen; t++ {
		x = mulMod(x, 48271)
		if t > 20 {
			i := t - 21
			p[i/3][i%3] = uint32(x)
		}
	}
	return p
}()

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹−1, reducing the 62-bit
// product with the Mersenne identity 2³¹ ≡ 1.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// Seed resets the generator to the state math/rand's Seed(seed) produces,
// computing no state word yet.
func (s *source) Seed(seed int64) {
	s.tap = 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint32(seed)
}

// word returns state word i as math/rand seeds it.
func (s *source) word(i int) int64 {
	p, x := &seedPow[i], uint64(s.x0)
	a := mulMod(uint64(p[0]), x)
	b := mulMod(uint64(p[1]), x)
	c := mulMod(uint64(p[2]), x)
	return int64(a)<<40 ^ int64(b)<<20 ^ int64(c) ^ rngCooked[i]
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	tap := int(s.tap) - 1
	if tap < 0 {
		tap += rngLen
	}
	s.tap = int32(tap)
	feed := tap + rngLen - rngTap
	if feed >= rngLen {
		feed -= rngLen
	}
	if s.x0 != 0 {
		if tap >= rngLen-rngTap { // draws 1–273: both words are untouched
			return uint64(s.word(feed) + s.word(tap))
		}
		s.fill(tap, feed)
	}
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return uint64(x)
}

// fill computes the words that draw d = rngLen−tap, one of 274–334, reads
// for the first time.
func (s *source) fill(tap, feed int) {
	if tap == rngLen-rngTap-1 { // draw 274: replay the writes of draws 1–273
		if s.vec == nil {
			s.vec = new([rngLen]int64)
		}
		for t := rngLen - rngTap; t < rngLen; t++ {
			w := s.word(t)
			s.vec[t] = w
			s.vec[t-rngTap] = s.word(t-rngTap) + w
		}
	}
	s.vec[feed] = s.word(feed)
	if tap == rngTap { // draw 334: every word has now been computed
		s.x0 = 0
	}
}
