package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dyngraph/internal/graph"
)

// Ablation: PCG preconditioner choice (the internal/solver design
// decision called out in DESIGN.md). Three graph families stress
// different regimes — cluster-structured graphs are what every CAD
// experiment solves on; near-trees are the tree preconditioner's best
// case; uniform random graphs its worst.

func clusterGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	half := n / 2
	for c := 0; c < 2; c++ {
		base := c * half
		for i := 0; i < half; i++ {
			for k := 0; k < 6; k++ {
				j := rng.Intn(half)
				if j != i {
					b.SetEdge(base+i, base+j, 1+rng.Float64())
				}
			}
		}
	}
	b.SetEdge(0, half, 0.01) // weak bridge: bad conditioning
	// Spanning path to guarantee connectivity.
	for i := 1; i < n; i++ {
		b.AddEdge(i-1, i, 0.5)
	}
	return b.MustBuild()
}

func nearTreeGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i-1, i, math.Pow(10, rng.Float64()*4-2))
	}
	for k := 0; k < 8; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.SetEdge(i, j, 0.01)
		}
	}
	return b.MustBuild()
}

func uniformRandomGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(rng.Intn(i), i, 0.5+rng.Float64())
	}
	for k := 0; k < 3*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.SetEdge(i, j, 0.5+rng.Float64())
		}
	}
	return b.MustBuild()
}

func benchSolve(b *testing.B, g *graph.Graph, prec Precond) {
	rng := rand.New(rand.NewSource(99))
	rhs := projectedRHS(rng, g.N())
	s := New(g, Options{Precond: prec, MaxIter: 5000000}, Build{})
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		_, st, err := solveVec(s, rhs)
		if err != nil {
			b.Fatal(err)
		}
		iters = st.Iterations
	}
	b.ReportMetric(float64(iters), "pcg-iters")
}

func BenchmarkPCGPreconditionerAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"cluster", clusterGraph(rng, 2000)},
		{"neartree", nearTreeGraph(rng, 2000)},
		{"random", uniformRandomGraph(rng, 2000)},
	}
	for _, fam := range families {
		for _, prec := range []Precond{PrecondTree, PrecondJacobi, PrecondNone} {
			b.Run(fmt.Sprintf("%s/%s", fam.name, prec), func(b *testing.B) {
				benchSolve(b, fam.g, prec)
			})
		}
	}
}

func BenchmarkLaplacianSetup(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := uniformRandomGraph(rng, 5000)
	for _, prec := range []Precond{PrecondTree, PrecondJacobi} {
		b.Run(prec.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = New(g, Options{Precond: prec}, Build{})
			}
		})
	}
}
