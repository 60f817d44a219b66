// Package simrand provides deterministic, seedable randomness helpers used
// throughout the simulator. Every stochastic component of the reproduction
// (universe generation, exchange rotation, scanner noise) draws from a
// simrand.Source so that a single seed reproduces an entire experiment
// bit-for-bit.
//
// A Source's stream is math/rand's seeded stream: New(seed) yields exactly
// the values rand.New(rand.NewSource(int64(seed))) would, call for call.
// The package carries its own copy of that generator (rng.go) so the hot
// draws — Intn, Float64, Word, the token helpers — skip the interface
// dispatch, and so a Source can be reseeded in place (SubInto). Perm,
// Shuffle, Norm, Exp and Zipf run math/rand's own code over the copy.
// TestStreamMatchesMathRand pins the equivalence; any change to the
// stream changes every golden.
//
// On top of that the package adds weighted choice, Zipf sampling, stable
// named sub-streams, and a few distribution helpers the workload
// generators need.
package simrand

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Source is a deterministic random source. It is NOT safe for concurrent
// use; derive per-goroutine sources with Sub. A Source holds its
// generator by value, so it must not be copied; pass *Source (go vet
// rejects copies).
type Source struct {
	_    noCopy
	gen  rngSource
	seed uint64
	// std wraps gen for the draws that run math/rand's own code; it is
	// built on first use and stays valid across SubInto reseeds.
	std *rand.Rand
}

// noCopy makes go vet's copylocks check reject copying a Source by value.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	s := new(Source)
	s.reseed(seed)
	return s
}

func (s *Source) reseed(seed uint64) {
	s.gen.Seed(int64(seed))
	s.seed = seed
}

// stdRand returns a math/rand view of s's stream.
func (s *Source) stdRand() *rand.Rand {
	if s.std == nil {
		s.std = rand.New(&s.gen)
	}
	return s.std
}

// Seed returns the seed the source was created with.
func (s *Source) Seed() uint64 { return s.seed }

// Sub derives a new independent Source from this source's seed and a name.
// Two Sub calls with the same name on sources with the same seed yield
// identical streams, regardless of how much randomness has been consumed
// from the parent. This keeps experiment components independent: consuming
// more randomness in one subsystem does not shift another subsystem's
// stream.
func (s *Source) Sub(name string) *Source {
	dst := new(Source)
	s.SubInto(dst, name)
	return dst
}

// SubInto reseeds dst in place to the stream Sub would return for the
// concatenation of the name parts, without allocating. Passing the name
// in parts lets a caller name a substream after several strings without
// building the joined string.
func (s *Source) SubInto(dst *Source, name ...string) {
	// FNV-1a (64-bit) over the parent seed's little-endian bytes, then
	// the name.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(s.seed >> (8 * i)))
		h *= prime64
	}
	for _, part := range name {
		for i := 0; i < len(part); i++ {
			h ^= uint64(part[i])
			h *= prime64
		}
	}
	dst.reseed(h)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

// int31n is math/rand's Int31n: mask for a power of two, otherwise
// uint31n.
func (s *Source) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(s.gen.Int63()>>32) & (n - 1)
	}
	return int32(s.uint31n(uint32(n)))
}

// uint31n is Int31n's rejection rule for n not a power of two: reject
// draws above the largest multiple of n and reduce. It is small enough to
// inline, so a constant n turns the bound and the reduction into
// constants.
func (s *Source) uint31n(n uint32) uint32 {
	max := uint32(1<<31 - 1 - (1<<31)%n)
	for {
		if v := uint32(s.gen.Uint64()>>32) & (1<<31 - 1); v <= max {
			return v % n
		}
	}
}

// int63n is math/rand's Int63n.
func (s *Source) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.gen.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.gen.Int63()
	for v > max {
		v = s.gen.Int63()
	}
	return v % n
}

// Int63 returns a non-negative 63-bit integer.
func (s *Source) Int63() int64 { return s.gen.Int63() }

// Float64 returns a uniform float64 in [0, 1), by math/rand's Float64
// rule (a draw that rounds up to 1 is redrawn).
func (s *Source) Float64() float64 {
	for {
		f := float64(s.gen.Int63()) / (1 << 63)
		if f < 1 {
			return f
		}
	}
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Range returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (s *Source) Range(lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("simrand: invalid range [%d, %d]", lo, hi))
	}
	return lo + s.Intn(hi-lo+1)
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation.
func (s *Source) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.stdRand().NormFloat64()
}

// Exp returns an exponentially distributed float64 with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return s.stdRand().ExpFloat64() * mean
}

// Geometric returns a geometrically distributed integer >= 1 with success
// probability p (the number of Bernoulli trials up to and including the
// first success). p must be in (0, 1].
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("simrand: invalid geometric p=%v", p))
	}
	if p == 1 {
		return 1
	}
	u := s.Float64()
	// Inverse CDF: ceil(ln(1-u) / ln(1-p)).
	n := int(math.Ceil(math.Log(1-u) / math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	return n
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.stdRand().Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.stdRand().Shuffle(n, swap) }

// Pick returns a uniformly random element of items. It panics on an empty
// slice.
func Pick[T any](s *Source, items []T) T {
	if len(items) == 0 {
		panic("simrand: Pick from empty slice")
	}
	return items[s.Intn(len(items))]
}

// PickN returns n distinct uniformly random elements of items (or all of
// them if n >= len(items)), in random order.
func PickN[T any](s *Source, items []T, n int) []T {
	if n >= len(items) {
		out := make([]T, len(items))
		copy(out, items)
		s.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	perm := s.Perm(len(items))
	out := make([]T, 0, n)
	for _, idx := range perm[:n] {
		out = append(out, items[idx])
	}
	return out
}

// Weighted selects an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero weights are allowed; negative weights
// and an all-zero weight vector panic.
type Weighted struct {
	cum []float64
}

// NewWeighted builds a reusable weighted sampler.
func NewWeighted(weights []float64) *Weighted {
	if len(weights) == 0 {
		panic("simrand: NewWeighted with no weights")
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic(fmt.Sprintf("simrand: invalid weight %v at index %d", w, i))
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		panic("simrand: all weights are zero")
	}
	return &Weighted{cum: cum}
}

// Sample draws an index from the weighted distribution.
func (w *Weighted) Sample(s *Source) int {
	total := w.cum[len(w.cum)-1]
	u := s.Float64() * total
	idx := sort.SearchFloat64s(w.cum, u)
	// SearchFloat64s returns the first index with cum >= u; if u lands
	// exactly on a boundary we may get an index whose own weight is zero,
	// so walk forward to the next positive-weight bucket.
	for idx < len(w.cum)-1 && w.weightAt(idx) == 0 {
		idx++
	}
	if idx >= len(w.cum) {
		idx = len(w.cum) - 1
	}
	return idx
}

func (w *Weighted) weightAt(i int) float64 {
	if i == 0 {
		return w.cum[0]
	}
	return w.cum[i] - w.cum[i-1]
}

// WeightedPick is a convenience that builds a one-shot weighted sampler
// over items with the given weights and returns one item.
func WeightedPick[T any](s *Source, items []T, weights []float64) T {
	if len(items) != len(weights) {
		panic("simrand: WeightedPick length mismatch")
	}
	return items[NewWeighted(weights).Sample(s)]
}

// Zipf samples integers in [0, n) following a Zipf distribution with
// exponent theta. Used for popularity skew (a few domains absorb most
// traffic, matching the heavy-tailed referral pattern the paper observes).
type Zipf struct {
	z *rand.Zipf
}

// NewZipf builds a Zipf sampler over [0, n) with exponent theta (> 1).
func NewZipf(s *Source, theta float64, n uint64) *Zipf {
	if n == 0 {
		panic("simrand: NewZipf with n=0")
	}
	z := rand.NewZipf(s.stdRand(), theta, 1, n-1)
	if z == nil {
		panic(fmt.Sprintf("simrand: invalid zipf params theta=%v n=%d", theta, n))
	}
	return &Zipf{z: z}
}

// Sample draws one value.
func (z *Zipf) Sample() uint64 { return z.z.Uint64() }

// Letters used by identifier generators.
const lowerAlpha = "abcdefghijklmnopqrstuvwxyz"
const alphaNum = "abcdefghijklmnopqrstuvwxyz0123456789"

// Word returns a pronounceable-ish lowercase word of length in [minLen,
// maxLen], alternating consonant/vowel clusters. Used for synthetic domain
// and path names.
func (s *Source) Word(minLen, maxLen int) string {
	var buf [16]byte
	return string(s.AppendWord(buf[:0], minLen, maxLen))
}

// AppendWord appends a Word(minLen, maxLen) to dst, drawing exactly what
// Word draws, and returns the extended slice.
func (s *Source) AppendWord(dst []byte, minLen, maxLen int) []byte {
	const vowels = "aeiou"
	const consonants = "bcdfghjklmnpqrstvwxyz"
	n := s.Range(minLen, maxLen)
	useVowel := s.Bool(0.4)
	dst = slices.Grow(dst, n)
	word := dst[len(dst) : len(dst)+n]
	for i := range word {
		if useVowel {
			word[i] = vowels[s.uint31n(uint32(len(vowels)))]
		} else {
			word[i] = consonants[s.uint31n(uint32(len(consonants)))]
		}
		useVowel = !useVowel
	}
	return dst[:len(dst)+n]
}

// Token returns a random lowercase alphanumeric token of length n, like
// the opaque IDs shorteners and ad trackers use.
func (s *Source) Token(n int) string { return s.token(alphaNum, n) }

// LowerToken returns a random lowercase alphabetic token of length n.
func (s *Source) LowerToken(n int) string { return s.token(lowerAlpha, n) }

// HexToken returns a random lowercase hex string of length n.
func (s *Source) HexToken(n int) string { return s.token("0123456789abcdef", n) }

// token draws n characters uniformly from alphabet.
func (s *Source) token(alphabet string, n int) string {
	var arr [32]byte
	buf := arr[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, alphabet[s.int31n(int32(len(alphabet)))])
	}
	return string(buf)
}
