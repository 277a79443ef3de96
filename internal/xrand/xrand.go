// Package xrand provides small, fast, allocation-free pseudo-random number
// generators for use inside benchmark workers and randomized tests.
//
// The benchmark harness needs a per-worker generator whose Next call costs a
// few nanoseconds and never allocates, so that the measured throughput is the
// deque's and not the RNG's. math/rand's global functions take a lock and
// rand.New allocates; the generators here are plain structs the caller owns.
package xrand

import "math/bits"

// SplitMix64 is the splitmix64 generator of Steele, Lea, and Flood. It has a
// 64-bit state, passes BigCrush, and is primarily used here to seed and to
// derive independent streams for worker goroutines.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Period returns a sampling interval uniform in [1, 2n-1], whose mean is
// n. A sampler re-armed from it fires every n-th event on average but
// cannot lock onto a period in the event stream, as a fixed interval
// does (an even interval over strictly alternating events sees only one
// kind). n <= 1 returns 1, so an interval of 1 still samples every event.
func (s *SplitMix64) Period(n uint64) uint64 {
	if n <= 1 {
		return 1
	}
	hi, _ := bits.Mul64(s.Next(), 2*n-1)
	return hi + 1
}

// Xoshiro256 is the xoshiro256** generator of Blackman and Vigna: 256 bits of
// state, period 2^256-1, and excellent statistical quality. Each benchmark
// worker owns one, seeded from a distinct SplitMix64 stream.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator seeded from seed via SplitMix64, per the
// authors' recommendation. A zero seed is remapped so the state is nonzero.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15 // all-zero state is the one forbidden point
	}
	return &x
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Next returns the next value in the sequence.
func (x *Xoshiro256) Next() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Uint32 returns a uniformly distributed 32-bit value.
func (x *Xoshiro256) Uint32() uint32 { return uint32(x.Next() >> 32) }

// Intn returns a value uniformly distributed in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift reduction, which avoids the modulo.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int((uint64(x.Uint32()) * uint64(n)) >> 32)
}

// Float64 returns a value uniformly distributed in [0, 1).
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Next()>>11) / (1 << 53)
}

// Bool returns an unbiased random boolean.
func (x *Xoshiro256) Bool() bool { return x.Next()&1 == 1 }
