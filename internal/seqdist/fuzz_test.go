package seqdist

import (
	"bytes"
	"testing"
)

// FuzzEditDistanceBand fuzzes the banded edit distance and the frequency
// distance against the exact DP: the band must agree with the full matrix
// whenever it reports an exact answer, and the frequency distance must
// lower-bound the edit distance (the Table 1 predictor contract the
// MRS-index prediction matrix relies on).
func FuzzEditDistanceBand(f *testing.F) {
	// Seed corpus: equal strings, disjoint alphabets, single edits,
	// length-skewed pairs, and symbols outside the DNA alphabet; then the
	// inputs EditDistanceBounded's bit-parallel band hands to its DP
	// fallback (a band wider than a word, more than eight symbols) and the
	// band's one-word edge (k = 31) at lengths past 128.
	f.Add([]byte("ACGT"), []byte("ACGT"), 3)
	f.Add([]byte("AAAA"), []byte("TTTT"), 2)
	f.Add([]byte("ACGTACGT"), []byte("ACTTACGT"), 1)
	f.Add([]byte("A"), []byte("ACGTACGTACGT"), 4)
	f.Add([]byte(""), []byte("ACG"), 0)
	f.Add([]byte("ACNNGT"), []byte("ACGT"), 5)
	long := bytes.Repeat([]byte("ACGTTGCAAT"), 15)
	f.Add(long, append([]byte("GG"), long[5:]...), 31)
	f.Add(long, bytes.Repeat([]byte("TGCA"), 40), 40)
	f.Add([]byte("THEQUICKBROWNFOX0123456789"), []byte("THEQUICKBROWNFIX0123456789"), 2)
	f.Add(bytes.Repeat([]byte("ABCDEFGHIJKL"), 12), bytes.Repeat([]byte("ABCDEFGHIJKM"), 12), 33)

	f.Fuzz(func(t *testing.T, a, b []byte, bound int) {
		if len(a) > 256 || len(b) > 256 {
			t.Skip("cap input size to keep the quadratic DP cheap")
		}
		if bound < 0 {
			bound = -bound
		}
		bound %= 64

		ed := EditDistance(a, b)
		if back := EditDistance(b, a); back != ed {
			t.Fatalf("EditDistance not symmetric: %d vs %d", ed, back)
		}
		if bytes.Equal(a, b) && ed != 0 {
			t.Fatalf("EditDistance(x, x) = %d, want 0", ed)
		}

		got, ok := EditDistanceBounded(a, b, bound)
		if ok {
			if got != ed {
				t.Fatalf("EditDistanceBounded(%q, %q, %d) = %d, exact %d", a, b, bound, got, ed)
			}
			if ed > bound {
				t.Fatalf("EditDistanceBounded accepted distance %d above bound %d", ed, bound)
			}
		} else {
			if ed <= bound {
				t.Fatalf("EditDistanceBounded rejected (%q, %q) but exact distance %d <= bound %d",
					a, b, ed, bound)
			}
			if got != bound+1 {
				t.Fatalf("EditDistanceBounded refusal returned %d, want bound+1 = %d", got, bound+1)
			}
		}

		// Frequency distance lower-bounds edit distance: one edit operation
		// changes one frequency component (over any alphabet projection).
		fd := FreqDistance(DNA.FreqVector(a), DNA.FreqVector(b))
		if fd > ed {
			t.Fatalf("FreqDistance %d exceeds edit distance %d for (%q, %q)", fd, ed, a, b)
		}

		// The MBR form must lower-bound the exact frequency distance for the
		// degenerate box [u,u]×[v,v].
		u, v := DNA.FreqVector(a), DNA.FreqVector(b)
		if mbr := FreqDistanceMBR(u, u, v, v); mbr != fd {
			t.Fatalf("FreqDistanceMBR over point boxes = %d, want exact %d", mbr, fd)
		}
	})
}
