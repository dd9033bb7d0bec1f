package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, dim int) Vector {
	v := make(Vector, dim)
	for i := range v {
		v[i] = rng.NormFloat64() * 10
	}
	return v
}

func TestNormNames(t *testing.T) {
	if L1.String() != "L1" || L2.String() != "L2" || LInf.String() != "Linf" {
		t.Fatal("norm names")
	}
	if (Norm{P: 3}).String() != "L3" {
		t.Fatal("L3 name")
	}
}

func TestDistKnownValues(t *testing.T) {
	a := Vector{0, 0}
	b := Vector{3, 4}
	if got := L2.Dist(a, b); got != 5 {
		t.Fatalf("L2 = %g", got)
	}
	if got := L1.Dist(a, b); got != 7 {
		t.Fatalf("L1 = %g", got)
	}
	if got := LInf.Dist(a, b); got != 4 {
		t.Fatalf("Linf = %g", got)
	}
	if got := (Norm{P: 3}).Dist(a, b); math.Abs(got-math.Pow(27+64, 1.0/3)) > 1e-12 {
		t.Fatalf("L3 = %g", got)
	}
}

func TestDistDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	L2.Dist(Vector{1}, Vector{1, 2})
}

func TestDistProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	norms := []Norm{L1, L2, LInf, {P: 3}}
	for iter := 0; iter < 300; iter++ {
		dim := 1 + rng.Intn(8)
		a, b, c := randVec(rng, dim), randVec(rng, dim), randVec(rng, dim)
		for _, n := range norms {
			dab, dba := n.Dist(a, b), n.Dist(b, a)
			if math.Abs(dab-dba) > 1e-9 {
				t.Fatalf("%v not symmetric: %g vs %g", n, dab, dba)
			}
			if n.Dist(a, a) != 0 {
				t.Fatalf("%v: d(a,a) != 0", n)
			}
			if dab < 0 {
				t.Fatalf("%v negative distance", n)
			}
			// Triangle inequality.
			if n.Dist(a, c) > dab+n.Dist(b, c)+1e-9 {
				t.Fatalf("%v violates triangle inequality", n)
			}
		}
		// Norm ordering: Linf <= L2 <= L1.
		if LInf.Dist(a, b) > L2.Dist(a, b)+1e-9 || L2.Dist(a, b) > L1.Dist(a, b)+1e-9 {
			t.Fatal("norm ordering violated")
		}
	}
}

func TestDistSqMatchesL2(t *testing.T) {
	clamp := func(v float64) float64 { return math.Mod(v, 1e6) } // avoid overflow to +Inf
	f := func(ax, ay, bx, by float64) bool {
		a := Vector{clamp(ax), clamp(ay)}
		b := Vector{clamp(bx), clamp(by)}
		d := L2.Dist(a, b)
		return math.Abs(DistSq(a, b)-d*d) < 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMBRBasics(t *testing.T) {
	m := NewMBR(Vector{1, 2})
	if m.IsEmpty() || m.Dim() != 2 {
		t.Fatal("point MBR")
	}
	m.ExtendPoint(Vector{3, 0})
	if m.Min[0] != 1 || m.Min[1] != 0 || m.Max[0] != 3 || m.Max[1] != 2 {
		t.Fatalf("extend: %v", m)
	}
}

func TestEmptyMBR(t *testing.T) {
	e := EmptyMBR(3)
	if !e.IsEmpty() {
		t.Fatal("EmptyMBR not empty")
	}
	if e.Contains(Vector{0, 0, 0}) {
		t.Fatal("empty contains point")
	}
	e.ExtendPoint(Vector{1, 2, 3})
	if e.IsEmpty() {
		t.Fatal("extend of empty failed")
	}
	if !e.Contains(Vector{1, 2, 3}) {
		t.Fatal("contains after extend")
	}
}

func TestMBRString(t *testing.T) {
	if NewMBR(Vector{1}).String() == "" {
		t.Fatal("empty string")
	}
}

func TestIntersectsAndIntersect(t *testing.T) {
	a := MBR{Min: Vector{0, 0}, Max: Vector{2, 2}}
	b := MBR{Min: Vector{1, 1}, Max: Vector{3, 3}}
	c := MBR{Min: Vector{5, 5}, Max: Vector{6, 6}}
	if !a.Intersects(b) || a.Intersects(c) {
		t.Fatal("intersects")
	}
	// Touching boxes intersect (closed rectangles).
	d := MBR{Min: Vector{2, 0}, Max: Vector{4, 2}}
	if !a.Intersects(d) {
		t.Fatal("touching boxes must intersect")
	}
	x := Intersect(a, b)
	if x.Min[0] != 1 || x.Max[0] != 2 {
		t.Fatalf("intersect = %v", x)
	}
	if !Intersect(a, c).IsEmpty() {
		t.Fatal("disjoint intersection not empty")
	}
}

func TestUnionAndContainsMBR(t *testing.T) {
	a := MBR{Min: Vector{0, 0}, Max: Vector{1, 1}}
	b := MBR{Min: Vector{2, 2}, Max: Vector{3, 3}}
	u := Union(a, b)
	if !u.ContainsMBR(a) || !u.ContainsMBR(b) {
		t.Fatal("union does not contain inputs")
	}
	if Union(EmptyMBR(2), a).IsEmpty() {
		t.Fatal("union with empty")
	}
	if !Union(a, EmptyMBR(2)).ContainsMBR(a) {
		t.Fatal("union with empty rhs")
	}
	if a.ContainsMBR(u) {
		t.Fatal("a should not contain union")
	}
}

func TestExtended(t *testing.T) {
	a := MBR{Min: Vector{0, 0}, Max: Vector{1, 1}}
	e := a.Extended(0.5)
	if e.Min[0] != -0.5 || e.Max[1] != 1.5 {
		t.Fatalf("extended = %v", e)
	}
	// Original must be unchanged.
	if a.Min[0] != 0 {
		t.Fatal("Extended mutated receiver")
	}
}

// TestMinDistLowerBounds is the core predictor property (Theorem 1 relies on
// it): for any two MBRs and any points inside them, MinDist(a,b) <= dist(p,q).
func TestMinDistLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	norms := []Norm{L1, L2, LInf, {P: 4}}
	for iter := 0; iter < 500; iter++ {
		dim := 1 + rng.Intn(6)
		p, q := randVec(rng, dim), randVec(rng, dim)
		a, b := NewMBR(p), NewMBR(q)
		// Grow the boxes with extra random points.
		for k := 0; k < rng.Intn(4); k++ {
			a.ExtendPoint(randVec(rng, dim))
			b.ExtendPoint(randVec(rng, dim))
		}
		for _, n := range norms {
			if md := n.MinDist(a, b); md > n.Dist(p, q)+1e-9 {
				t.Fatalf("%v MinDist %g > dist %g", n, md, n.Dist(p, q))
			}
		}
	}
}

func TestMinDistOverlappingIsZero(t *testing.T) {
	a := MBR{Min: Vector{0, 0}, Max: Vector{2, 2}}
	b := MBR{Min: Vector{1, 1}, Max: Vector{3, 3}}
	if L2.MinDist(a, b) != 0 {
		t.Fatal("overlapping MinDist != 0")
	}
}

func TestMinDistKnown(t *testing.T) {
	a := MBR{Min: Vector{0, 0}, Max: Vector{1, 1}}
	b := MBR{Min: Vector{4, 5}, Max: Vector{6, 7}}
	if got := L2.MinDist(a, b); math.Abs(got-5) > 1e-12 {
		t.Fatalf("MinDist = %g, want 5", got)
	}
	if got := L1.MinDist(a, b); got != 7 {
		t.Fatalf("L1 MinDist = %g", got)
	}
	if !math.IsInf(L2.MinDist(EmptyMBR(2), b), 1) {
		t.Fatal("MinDist with empty should be +Inf")
	}
}

func TestMinDistPoint(t *testing.T) {
	m := MBR{Min: Vector{0, 0}, Max: Vector{2, 2}}
	if got := L2.MinDistPoint(Vector{1, 1}, m); got != 0 {
		t.Fatalf("inside point = %g", got)
	}
	if got := L2.MinDistPoint(Vector{5, 2}, m); got != 3 {
		t.Fatalf("outside point = %g", got)
	}
	if !math.IsInf(L2.MinDistPoint(Vector{0, 0}, EmptyMBR(2)), 1) {
		t.Fatal("empty MBR should give +Inf")
	}
	// Lower-bound property against contained points.
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		q := randVec(rng, 3)
		box := NewMBR(randVec(rng, 3))
		box.ExtendPoint(randVec(rng, 3))
		inside := make(Vector, 3)
		for d := 0; d < 3; d++ {
			inside[d] = box.Min[d] + rng.Float64()*(box.Max[d]-box.Min[d])
		}
		if L2.MinDistPoint(q, box) > L2.Dist(q, inside)+1e-9 {
			t.Fatal("MinDistPoint not a lower bound")
		}
	}
}

func TestIntersectCommutesAndShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 200; iter++ {
		a := NewMBR(randVec(rng, 2))
		a.ExtendPoint(randVec(rng, 2))
		b := NewMBR(randVec(rng, 2))
		b.ExtendPoint(randVec(rng, 2))
		x := Intersect(a, b)
		y := Intersect(b, a)
		if x.IsEmpty() != y.IsEmpty() {
			t.Fatal("intersect not commutative in emptiness")
		}
		if !x.IsEmpty() {
			if !a.ContainsMBR(x) || !b.ContainsMBR(x) {
				t.Fatal("intersection escapes inputs")
			}
		}
		if a.Intersects(b) != !x.IsEmpty() {
			t.Fatal("Intersects disagrees with Intersect emptiness")
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := NewMBR(Vector{1, 2})
	c := a.Clone()
	c.Min[0] = 99
	if a.Min[0] == 99 {
		t.Fatal("clone aliases")
	}
	v := Vector{1, 2}
	w := v.Clone()
	w[0] = 5
	if v[0] == 5 {
		t.Fatal("vector clone aliases")
	}
}
