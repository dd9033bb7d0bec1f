package cluster

import (
	"math/rand"
	"testing"

	"pmjoin/internal/predmat"
)

// randomMatrix marks roughly density*rows*cols entries.
func randomMatrix(rng *rand.Rand, rows, cols int, density float64) *predmat.Matrix {
	m := predmat.NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				m.Mark(r, c)
			}
		}
	}
	return m
}

// bandedMatrix marks entries near the diagonal (the structure spatial joins
// produce).
func bandedMatrix(rng *rand.Rand, n, band int, density float64) *predmat.Matrix {
	m := predmat.NewMatrix(n, n)
	for r := 0; r < n; r++ {
		for dc := -band; dc <= band; dc++ {
			c := r + dc
			if c >= 0 && c < n && rng.Float64() < density {
				m.Mark(r, c)
			}
		}
	}
	return m
}

func TestSquareRejectsTinyBuffer(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(1)), 4, 4, 0.5)
	if _, err := SquareOpts(m, 1, SquareOptions{}); err == nil {
		t.Fatal("buffer 1 accepted")
	}
}

func TestSquareOptsRejectsBadFraction(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(1)), 4, 4, 0.5)
	for _, f := range []float64{-0.1, 1.0, 1.5} {
		if _, err := SquareOpts(m, 8, SquareOptions{RowFraction: f}); err == nil {
			t.Fatalf("fraction %g accepted", f)
		}
	}
}

// TestSquareValidOverRandomMatrices is the Lemma 2 property: clusters are
// disjoint, cover every marked entry, and fit into the buffer.
func TestSquareValidOverRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 30; iter++ {
		rows := 5 + rng.Intn(60)
		cols := 5 + rng.Intn(60)
		density := 0.01 + rng.Float64()*0.4
		b := 4 + rng.Intn(20)
		m := randomMatrix(rng, rows, cols, density)
		if m.Marked() == 0 {
			continue
		}
		clusters, err := SquareOpts(m, b, SquareOptions{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := Validate(clusters, m, b); err != nil {
			t.Fatalf("iter %d (rows=%d cols=%d b=%d): %v", iter, rows, cols, b, err)
		}
	}
}

func TestSquareShapeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 50, 50, 0.3)
	const b = 10
	clusters, err := SquareOpts(m, b, SquareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clusters {
		if len(c.Rows()) > b/2 {
			t.Fatalf("cluster %d has %d rows > %d", i, len(c.Rows()), b/2)
		}
		if len(c.Cols()) > b/2 {
			t.Fatalf("cluster %d has %d cols > %d", i, len(c.Cols()), b/2)
		}
	}
}

func TestSquareRowFractionShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 60, 60, 0.3)
	clusters, err := SquareOpts(m, 12, SquareOptions{RowFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(clusters, m, 12); err != nil {
		t.Fatal(err)
	}
	for _, c := range clusters {
		if len(c.Rows()) > 3 { // 12 * 0.25
			t.Fatalf("rows = %d with fraction 0.25", len(c.Rows()))
		}
	}
}

func TestSquareEmptyMatrix(t *testing.T) {
	m := predmat.NewMatrix(10, 10)
	clusters, err := SquareOpts(m, 8, SquareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 0 {
		t.Fatalf("clusters = %d for empty matrix", len(clusters))
	}
}

func TestSquareSingleEntry(t *testing.T) {
	m := predmat.NewMatrix(10, 10)
	m.Mark(7, 3)
	clusters, err := SquareOpts(m, 4, SquareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 || clusters[0].Pages() != 2 {
		t.Fatalf("clusters = %+v", clusters)
	}
	if err := Validate(clusters, m, 4); err != nil {
		t.Fatal(err)
	}
}

func TestSquareDenseColumn(t *testing.T) {
	// One column with more marks than a cluster can hold rows: entries must
	// spill into later clusters, never be lost.
	m := predmat.NewMatrix(40, 3)
	for r := 0; r < 40; r++ {
		m.Mark(r, 1)
	}
	clusters, err := SquareOpts(m, 8, SquareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(clusters, m, 8); err != nil {
		t.Fatal(err)
	}
	if len(clusters) < 40/4 {
		t.Fatalf("expected at least 10 clusters, got %d", len(clusters))
	}
}

func TestSquareMinimalWidthPreference(t *testing.T) {
	// Marks in columns 0,1 and a distant column 50: the first cluster must
	// take the near columns, not jump to 50.
	m := predmat.NewMatrix(10, 60)
	m.Mark(0, 0)
	m.Mark(1, 1)
	m.Mark(2, 50)
	clusters, err := SquareOpts(m, 6, SquareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := clusters[0]
	for _, c := range first.Cols() {
		if c == 50 && len(clusters) > 1 {
			t.Fatal("first cluster jumped to the distant column")
		}
	}
	if err := Validate(clusters, m, 6); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadClusters(t *testing.T) {
	m := predmat.NewMatrix(5, 5)
	m.Mark(0, 0)
	m.Mark(1, 1)
	// Missing coverage.
	c1 := &Cluster{Entries: []predmat.Entry{{R: 0, C: 0}}}
	c1Fix := *c1
	refFinalize(&c1Fix)
	if err := Validate([]*Cluster{&c1Fix}, m, 8); err == nil {
		t.Fatal("missing coverage not detected")
	}
	// Duplicate assignment.
	c2 := &Cluster{Entries: []predmat.Entry{{R: 0, C: 0}, {R: 1, C: 1}}}
	refFinalize(c2)
	c3 := &Cluster{Entries: []predmat.Entry{{R: 0, C: 0}}}
	refFinalize(c3)
	if err := Validate([]*Cluster{c2, c3}, m, 8); err == nil {
		t.Fatal("duplicate not detected")
	}
	// Unmarked entry.
	c4 := &Cluster{Entries: []predmat.Entry{{R: 4, C: 4}}}
	refFinalize(c4)
	if err := Validate([]*Cluster{c4}, m, 8); err == nil {
		t.Fatal("unmarked entry not detected")
	}
	// Oversized cluster.
	big := &Cluster{Entries: []predmat.Entry{{R: 0, C: 0}, {R: 1, C: 1}}}
	refFinalize(big)
	if err := Validate([]*Cluster{big}, m, 3); err == nil {
		t.Fatal("oversized cluster not detected")
	}
}

func TestCostRejectsTinyBuffer(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(5)), 4, 4, 0.5)
	if _, err := Cost(m, 1, CostOptions{}); err == nil {
		t.Fatal("buffer 1 accepted")
	}
}

// TestCostValidOverRandomMatrices: CC clusters also satisfy Lemma 2.
func TestCostValidOverRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 15; iter++ {
		rows := 5 + rng.Intn(40)
		cols := 5 + rng.Intn(40)
		b := 4 + rng.Intn(16)
		m := randomMatrix(rng, rows, cols, 0.05+rng.Float64()*0.3)
		if m.Marked() == 0 {
			continue
		}
		clusters, err := Cost(m, b, CostOptions{Seed: int64(iter)})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := Validate(clusters, m, b); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

func TestCostDeterministicInSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := bandedMatrix(rng, 60, 5, 0.6)
	a, err := Cost(m, 10, CostOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cost(m, 10, CostOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Entries) != len(b[i].Entries) {
			t.Fatalf("cluster %d sizes differ", i)
		}
	}
}

func TestCostHistogramBins(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := bandedMatrix(rng, 50, 4, 0.7)
	for _, bins := range []int{1, 10, 1000} {
		clusters, err := Cost(m, 12, CostOptions{HistogramBins: bins})
		if err != nil {
			t.Fatalf("bins=%d: %v", bins, err)
		}
		if err := Validate(clusters, m, 12); err != nil {
			t.Fatalf("bins=%d: %v", bins, err)
		}
	}
}

func TestCostSingleEntry(t *testing.T) {
	m := predmat.NewMatrix(6, 6)
	m.Mark(2, 4)
	clusters, err := Cost(m, 4, CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 || clusters[0].Pages() != 2 {
		t.Fatalf("clusters = %v", clusters)
	}
}

// TestCostPrefersDenseClusters: on a banded matrix CC should produce fewer
// pages read (sum over clusters) than naive one-entry-per-cluster.
func TestCostClusterEfficiency(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := bandedMatrix(rng, 80, 6, 0.8)
	clusters, err := Cost(m, 16, CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(clusters, m, 16); err != nil {
		t.Fatal(err)
	}
	totalPages := 0
	for _, c := range clusters {
		totalPages += c.Pages()
	}
	if totalPages >= 2*m.Marked() {
		t.Fatalf("CC degenerated to singletons: %d pages for %d entries", totalPages, m.Marked())
	}
}

func TestClusterAccessors(t *testing.T) {
	c := &Cluster{Entries: []predmat.Entry{{R: 3, C: 1}, {R: 3, C: 2}, {R: 5, C: 1}}}
	refFinalize(c)
	if got := c.Rows(); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("rows = %v", got)
	}
	if got := c.Cols(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("cols = %v", got)
	}
	if c.Pages() != 4 {
		t.Fatalf("pages = %d", c.Pages())
	}
}
