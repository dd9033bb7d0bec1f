package pmjoin_test

import (
	"context"
	"fmt"
	"log"

	"pmjoin"
)

// grid builds a deterministic point set: a g×g lattice with spacing d.
func grid(g int, d float64) [][]float64 {
	out := make([][]float64, 0, g*g)
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			out = append(out, []float64{float64(i) * d, float64(j) * d})
		}
	}
	return out
}

// ExampleSystem_Join joins two lattices under L2 with the paper's SC method.
func ExampleSystem_Join() {
	sys := pmjoin.NewSystem(pmjoin.DiskModel{PageBytes: 256})
	a, err := sys.AddVectors("a", grid(10, 1.0), pmjoin.VectorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	// The second lattice is offset by 0.4 in x: each of its points is
	// within 0.5 of exactly one point of the first lattice.
	pts := grid(10, 1.0)
	for _, p := range pts {
		p[0] += 0.4
	}
	b, err := sys.AddVectors("b", pts, pmjoin.VectorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Join(a, b, pmjoin.Options{
		Method:      pmjoin.SC,
		Epsilon:     0.5,
		BufferPages: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pairs:", res.Count())
	// Output:
	// pairs: 100
}

// ExampleSystem_Join_selfJoin counts close pairs within one dataset; each
// unordered pair is reported once.
func ExampleSystem_Join_selfJoin() {
	sys := pmjoin.NewSystem(pmjoin.DiskModel{PageBytes: 256})
	pts := [][]float64{{0, 0}, {0.1, 0}, {0.2, 0}, {5, 5}}
	for len(pts) < 64 { // pad far away so pages are realistic
		pts = append(pts, []float64{float64(len(pts)) * 10, 0})
	}
	ds, err := sys.AddVectors("pts", pts, pmjoin.VectorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Join(ds, ds, pmjoin.Options{
		Method:      pmjoin.PMNLJ,
		Epsilon:     0.15,
		BufferPages: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	// (0,0)-(0.1,0) and (0.1,0)-(0.2,0) are within 0.15; (0,0)-(0.2,0) is not.
	fmt.Println("close pairs:", res.Count())
	// Output:
	// close pairs: 2
}

// ExampleSystem_JoinContext runs the join on a worker pool with
// cancellation support. The Result is bit-for-bit identical to a serial
// run — Parallelism only changes wall-clock time, never counts or costs.
func ExampleSystem_JoinContext() {
	sys := pmjoin.NewSystem(pmjoin.DiskModel{PageBytes: 256})
	a, err := sys.AddVectors("a", grid(10, 1.0), pmjoin.VectorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	b, err := sys.AddVectors("b", grid(10, 1.0), pmjoin.VectorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.JoinContext(context.Background(), a, b, pmjoin.Options{
		Method:      pmjoin.SC,
		Epsilon:     0.5,
		BufferPages: 8,
		Parallelism: 4, // 0 means GOMAXPROCS; 1 forces serial execution
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pairs:", res.Count())
	fmt.Println("workers:", res.Exec.Workers)
	// Output:
	// pairs: 100
	// workers: 4
}

// ExampleSystem_Explain inspects the join plan without executing it.
func ExampleSystem_Explain() {
	sys := pmjoin.NewSystem(pmjoin.DiskModel{PageBytes: 256})
	a, err := sys.AddVectors("a", grid(12, 1.0), pmjoin.VectorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := sys.Explain(a, a, pmjoin.Options{Epsilon: 1.0, BufferPages: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("clusters fit the buffer:", plan.MaxClusterPages <= 8)
	fmt.Println("matrix has marks:", plan.MarkedEntries > 0)
	// Output:
	// clusters fit the buffer: true
	// matrix has marks: true
}
