package simrand

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// The reference side of the differential test: a math/rand generator
// seeded the way Source was seeded before it carried its own copy of the
// generator, and that version's helper algorithms, copied verbatim on top
// of it. Source must agree with them call for call.

func refNew(seed uint64) *rand.Rand { return rand.New(rand.NewSource(int64(seed))) }

func refSub(seed uint64, name string) *rand.Rand {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(name))
	return refNew(h.Sum64())
}

func refBool(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

func refRange(r *rand.Rand, lo, hi int) int { return lo + r.Intn(hi-lo+1) }

func refGeometric(r *rand.Rand, p float64) int {
	if p == 1 {
		return 1
	}
	u := r.Float64()
	n := int(math.Ceil(math.Log(1-u) / math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	return n
}

func refWord(r *rand.Rand, minLen, maxLen int) string {
	const vowels = "aeiou"
	const consonants = "bcdfghjklmnpqrstvwxyz"
	n := refRange(r, minLen, maxLen)
	buf := make([]byte, n)
	useVowel := refBool(r, 0.4)
	for i := 0; i < n; i++ {
		if useVowel {
			buf[i] = vowels[r.Intn(len(vowels))]
		} else {
			buf[i] = consonants[r.Intn(len(consonants))]
		}
		useVowel = !useVowel
	}
	return string(buf)
}

func refToken(r *rand.Rand, alphabet string, n int) string {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(buf)
}

// intnArgs covers Intn's three paths: powers of two (masked), other
// values up to 2³¹−1 (Int31n rejection) and values above it (Int63n),
// including bounds where rejection is frequent.
var intnArgs = []int{
	1, 2, 16, 1 << 20, 1 << 30, 1 << 31, 1 << 40, 1 << 62,
	3, 5, 21, 26, 36, 1000, 1<<30 + 1, 1<<31 - 1,
	1<<31 + 1, 3 << 30, 1<<40 + 7, 1<<62 + 1, math.MaxInt64,
}

const streamOps = 17

// checkStream runs the op program against a Source and the reference
// side in lockstep. Each op is one selector byte plus one argument byte.
func checkStream(t testing.TB, seed uint64, ops []byte) {
	t.Helper()
	s, r := New(seed), refNew(seed)
	var dst Source
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%streamOps, int(ops[i+1])
		fail := func(call string, got, want any) {
			t.Helper()
			t.Fatalf("seed %d op %d: %s = %v, math/rand gives %v", seed, i/2, call, got, want)
		}
		switch op {
		case 0:
			n := intnArgs[arg%len(intnArgs)]
			if got, want := s.Intn(n), r.Intn(n); got != want {
				fail("Intn("+strconv.Itoa(n)+")", got, want)
			}
		case 1:
			if got, want := s.Int63(), r.Int63(); got != want {
				fail("Int63()", got, want)
			}
		case 2:
			if got, want := s.Float64(), r.Float64(); got != want {
				fail("Float64()", got, want)
			}
		case 3:
			got, want := s.Perm(arg%40), r.Perm(arg%40)
			for j := range want {
				if got[j] != want[j] {
					fail("Perm", got, want)
				}
			}
		case 4:
			got, want := make([]int, arg%40), make([]int, arg%40)
			for j := range got {
				got[j], want[j] = j, j
			}
			s.Shuffle(len(got), func(a, b int) { got[a], got[b] = got[b], got[a] })
			r.Shuffle(len(want), func(a, b int) { want[a], want[b] = want[b], want[a] })
			for j := range want {
				if got[j] != want[j] {
					fail("Shuffle", got, want)
				}
			}
		case 5:
			if got, want := s.Norm(3, 2), 3+2*r.NormFloat64(); got != want {
				fail("Norm(3, 2)", got, want)
			}
		case 6:
			if got, want := s.Exp(4), r.ExpFloat64()*4; got != want {
				fail("Exp(4)", got, want)
			}
		case 7:
			n := uint64(2 + arg)
			z, rz := NewZipf(s, 1.2, n), rand.NewZipf(r, 1.2, 1, n-1)
			for k := 0; k < 3; k++ {
				if got, want := z.Sample(), rz.Uint64(); got != want {
					fail("Zipf.Sample", got, want)
				}
			}
		case 8, 9:
			lo := 1 + arg%8
			hi := lo + arg%13
			want := refWord(r, lo, hi)
			if op == 8 {
				if got := s.Word(lo, hi); got != want {
					fail("Word", got, want)
				}
			} else if got := string(s.AppendWord([]byte("pre:"), lo, hi)); got != "pre:"+want {
				fail("AppendWord", got, "pre:"+want)
			}
		case 10:
			if got, want := s.Token(arg%40), refToken(r, alphaNum, arg%40); got != want {
				fail("Token", got, want)
			}
		case 11:
			if got, want := s.LowerToken(arg%40), refToken(r, lowerAlpha, arg%40); got != want {
				fail("LowerToken", got, want)
			}
		case 12:
			if got, want := s.HexToken(arg%40), refToken(r, "0123456789abcdef", arg%40); got != want {
				fail("HexToken", got, want)
			}
		case 13:
			lo := arg - 100
			hi := lo + intnArgs[arg%len(intnArgs)]%1000
			if got, want := s.Range(lo, hi), refRange(r, lo, hi); got != want {
				fail("Range", got, want)
			}
		case 14:
			p := float64(arg)/200 - 0.1
			if got, want := s.Bool(p), refBool(r, p); got != want {
				fail("Bool", got, want)
			}
		case 15:
			p := float64(1+arg) / 256
			if got, want := s.Geometric(p), refGeometric(r, p); got != want {
				fail("Geometric", got, want)
			}
		case 16:
			name := "sub:" + strconv.Itoa(arg)
			sub, rsub := s.Sub(name), refSub(seed, name)
			s.SubInto(&dst, "sub:", strconv.Itoa(arg))
			for k := 0; k < 4; k++ {
				want := rsub.Int63()
				if got := sub.Int63(); got != want {
					fail("Sub("+name+").Int63", got, want)
				}
				if got := dst.Int63(); got != want {
					fail("SubInto("+name+").Int63", got, want)
				}
			}
		}
	}
}

// TestStreamMatchesMathRand pins Source to math/rand's seeded stream:
// every seed runs several thousand mixed calls, wrapping the 607-word ring
// many times, against the same calls on rand.New(rand.NewSource(seed))
// and the pre-replica helper algorithms. The seeds cover zero (which
// math/rand maps to 89482311), that value itself, 2³¹−1 (also reduced to
// zero), the sign boundary of int64 and large values.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := []uint64{0, 1, 42, 1<<31 - 1, 1 << 31, 89482311, 1<<63 + 5, 0xdeadbeefcafef00d}
	driver := rand.New(rand.NewSource(99))
	for _, seed := range seeds {
		ops := make([]byte, 2*4000)
		driver.Read(ops)
		checkStream(t, seed, ops)
	}
}

func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(uint64(1), []byte{0, 3, 8, 9, 16, 2, 7, 40})
	f.Add(uint64(0xdeadbeefcafef00d), []byte{0, 20, 0, 19, 13, 255, 4, 39, 5, 0, 6, 0})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		checkStream(t, seed, ops)
	})
}

// TestSubIntoMatchesSub: reseeding a used Source in place gives exactly
// the fresh Sub stream, including the math/rand-backed draws.
func TestSubIntoMatchesSub(t *testing.T) {
	parent := New(7)
	var dst Source
	dst.Perm(5) // build the math/rand view before the reseed
	for _, name := range []string{"a", "page:example.com/", ""} {
		parent.SubInto(&dst, name)
		want := parent.Sub(name)
		if dst.Seed() != want.Seed() {
			t.Fatalf("%q: SubInto seed %d, Sub seed %d", name, dst.Seed(), want.Seed())
		}
		for i := 0; i < 700; i++ {
			if dst.Norm(0, 1) != want.Norm(0, 1) || dst.Intn(1000) != want.Intn(1000) {
				t.Fatalf("%q: draw %d diverged", name, i)
			}
		}
	}
}

func BenchmarkSub(b *testing.B) {
	parent := New(1)
	b.Run("Sub", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = parent.Sub("page:example123.com/about")
		}
	})
	b.Run("SubInto", func(b *testing.B) {
		var dst Source
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			parent.SubInto(&dst, "page:", "example123.com", "/about")
		}
	})
}

var sink *Source
