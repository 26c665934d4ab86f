package rng

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator, word for word:
// Seed leaves the state rand.NewSource's Seed leaves, without its serial
// chain of 1 841 Schrage steps of x ← 48271·x mod (2³¹−1). Seed word k, three
// to a slot, is the seed advanced 21+k steps: one multiply by a power of 48271.
type source struct {
	tap, feed int
	vec       [srcLen]int64
}

// The state's length and second lag, and the seeding modulus, a Mersenne prime.
const srcLen, srcTap, lcgMod = 607, 273, 1<<31 - 1

var lcgPow [srcLen][3]uint64 // 48271^(21+3i+j) mod 2³¹−1: slot i's seed words
var cooked [srcLen]int64     // the table math/rand's Seed XORs into them

func init() {
	p := uint64(1)
	for k := -20; k < 3*srcLen; k++ {
		if p = p * 48271 % lcgMod; k >= 0 {
			lcgPow[k/3][k%3] = p
		}
	}
	// Recover cooked from math/rand: srcLen draws leave each slot holding the
	// draw that fed it, srcLen steps back give seed 1's state, XOR its words.
	ref, s := rand.NewSource(1).(rand.Source64), &source{feed: srcLen - srcTap}
	for range srcLen {
		s.Uint64() // moves the lags; the slot it feeds is then overwritten
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for range srcLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%srcLen, (s.feed+1)%srcLen
	}
	var words source
	words.Seed(1) // cooked is still zero: seed 1's bare words
	for i := range cooked {
		cooked[i] = s.vec[i] ^ words.vec[i]
	}
}

// Seed makes the state rand.NewSource(seed) starts from. A word is seed·p
// mod 2³¹−1 for both in [1, 2³¹−2]: two folds of the 62-bit product land in
// [1, 2³¹−2], since the modulus is prime and neither factor a multiple of it.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, srcLen-srcTap
	if seed %= lcgMod; seed < 0 {
		seed += lcgMod
	} else if seed == 0 {
		seed = 89482311
	}
	word := func(p uint64) uint64 {
		t := uint64(seed) * p
		t = t&lcgMod + t>>31
		return t&lcgMod + t>>31
	}
	for i := range s.vec {
		p := &lcgPow[i]
		s.vec[i] = int64(word(p[0])<<40^word(p[1])<<20^word(p[2])) ^ cooked[i]
	}
}

func (s *source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += srcLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
