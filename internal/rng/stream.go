package rng

// Stream is a generator held by value: a 16-byte source with the one draw
// the simulator's per-slot paths make, Intn, called directly rather than
// through rand.Rand's Intn → Int31n → Int63 → Source.Int63 chain and its
// interface call. Its stream is New's, draw for draw: after
// s.Reseed(seed, ids...), s.Intn(n) returns exactly what
// New(seed, ids...).Intn(n) would at the same position. The zero Stream
// must be reseeded before its first draw.
type Stream struct {
	src source
}

// Reseed restarts the stream at Derive(seed, ids...), so that its draws
// are those of a fresh New(seed, ids...). It costs O(1) and keeps the
// 607-word state array if an earlier stream allocated it, as Reseed does
// for a generator from New.
func (s *Stream) Reseed(seed int64, ids ...int64) {
	s.src.Seed(Derive(seed, ids...))
}

// Intn returns a pseudo-random int in [0, n), consuming the draws
// rand.(*Rand).Intn consumes: a masked draw for a power of two, rejection
// sampling otherwise, through Int31n's arithmetic for n ≤ 2³¹−1 and
// Int63n's above. It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

func (s *Stream) int31() int32 { return int32(s.src.Int63() >> 32) }

// int31n is rand.(*Rand).Int31n for n > 0.
func (s *Stream) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return s.int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := s.int31()
	for v > max {
		v = s.int31()
	}
	return v % n
}

// int63n is rand.(*Rand).Int63n for n > 0.
func (s *Stream) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.src.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.src.Int63()
	for v > max {
		v = s.src.Int63()
	}
	return v % n
}
