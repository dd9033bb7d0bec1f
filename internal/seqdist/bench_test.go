package seqdist

import (
	"math/rand"
	"testing"
)

func benchSeqs(n int) ([]byte, []byte) {
	rng := rand.New(rand.NewSource(1))
	return randDNA(rng, n), randDNA(rng, n)
}

// benchPairs returns the two kinds of pair a string join verifies: a near
// pair three edits apart (accepted at k = 5, every column evaluated) and a
// far pair of independent draws (refused within a few columns).
func benchPairs(n int) (near, far [2][]byte) {
	rng := rand.New(rand.NewSource(1))
	a := randDNA(rng, n)
	near = [2][]byte{a, mutate(rng, a, "ACGT", 3)}
	far = [2][]byte{a, randDNA(rng, n)}
	return near, far
}

func BenchmarkEditDistance500(b *testing.B) {
	x, y := benchSeqs(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EditDistance(x, y)
	}
}

func BenchmarkEditDistanceBoundedNear500(b *testing.B) {
	near, _ := benchPairs(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EditDistanceBounded(near[0], near[1], 5)
	}
}

func BenchmarkEditDistanceBoundedFar500(b *testing.B) {
	_, far := benchPairs(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EditDistanceBounded(far[0], far[1], 5)
	}
}

func BenchmarkFreqDistance(b *testing.B) {
	u := []int{147, 102, 103, 148}
	v := []int{150, 100, 101, 149}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FreqDistance(u, v)
	}
}

func BenchmarkFreqVector500(b *testing.B) {
	x, _ := benchSeqs(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DNA.FreqVector(x)
	}
}
