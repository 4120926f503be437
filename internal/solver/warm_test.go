package solver

import (
	"math"
	"math/rand"
	"testing"

	"dyngraph/internal/graph"
	"dyngraph/internal/sparse"
)

// perturbGraph returns a copy of g with a few random edge edits:
// weight changes on existing edges and a handful of insertions or
// deletions, keeping every weight non-negative.
func perturbGraph(rng *rand.Rand, g *graph.Graph, edits int) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.SetEdge(e.I, e.J, e.W)
	}
	edges := g.Edges()
	for k := 0; k < edits; k++ {
		switch rng.Intn(3) {
		case 0: // reweight an existing edge
			e := edges[rng.Intn(len(edges))]
			b.SetEdge(e.I, e.J, 0.5+rng.Float64())
		case 1: // insert
			i, j := rng.Intn(g.N()), rng.Intn(g.N())
			if i != j {
				b.SetEdge(i, j, 0.5+rng.Float64())
			}
		default: // delete
			e := edges[rng.Intn(len(edges))]
			b.SetEdge(e.I, e.J, 0)
		}
	}
	return b.MustBuild()
}

// warmVec solves L x = b warm-started from a copy of x0.
func warmVec(s *Laplacian, x0, b []float64) ([]float64, Stats, error) {
	x := append([]float64(nil), x0...)
	st, err := s.SolveBlock(x, b, 1, Solve{Warm: true})
	return x, st[0], err
}

// A warm start from the already-converged solution must return it
// unchanged with zero iterations — this is what makes rebuilding an
// embedding of an unchanged graph free.
func TestSolveFromConvergedGuessIsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedGraph(rng, 60)
	b := projectedRHS(rng, 60)
	s := New(g, Options{}, Build{})
	x0, _, err := solveVec(s, b)
	if err != nil {
		t.Fatal(err)
	}
	x, st, err := warmVec(s, x0, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 0 {
		t.Fatalf("warm start from the solution took %d iterations, want 0", st.Iterations)
	}
	for i := range x0 {
		if x[i] != x0[i] {
			t.Fatalf("warm start changed the converged solution at %d: %g vs %g", i, x[i], x0[i])
		}
	}
}

// A warm start from an arbitrary guess must converge to the same
// minimum-norm solution as a cold solve, within tolerance.
func TestSolveFromAgreesWithCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(50)
		g := randomConnectedGraph(rng, n)
		b := projectedRHS(rng, n)
		s := New(g, Options{}, Build{})
		cold, _, err := solveVec(s, b)
		if err != nil {
			t.Fatal(err)
		}
		x0 := projectedRHS(rng, n) // arbitrary (even uncentered would be fine)
		warm, _, err := warmVec(s, x0, b)
		if err != nil {
			t.Fatal(err)
		}
		scale := sparse.Norm2(cold) + 1
		for i := range cold {
			if math.Abs(warm[i]-cold[i]) > 1e-6*scale {
				t.Fatalf("trial %d: warm[%d]=%g cold[%d]=%g", trial, i, warm[i], i, cold[i])
			}
		}
	}
}

// Warm starting from the previous snapshot's solution after a small
// edit must still converge to the edited graph's solution.
func TestSolveFromAcrossEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g0 := randomConnectedGraph(rng, 80)
	g1 := perturbGraph(rng, g0, 4)
	b := projectedRHS(rng, 80)

	s0 := New(g0, Options{}, Build{})
	x0, _, err := solveVec(s0, b)
	if err != nil {
		t.Fatal(err)
	}

	s1 := newFrom(t, g1, g0, s0, Options{})
	cold, coldSt, err := solveVec(New(g1, Options{}, Build{}), b)
	if err != nil {
		t.Fatal(err)
	}
	warm, warmSt, err := warmVec(s1, x0, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(s1, warm, b); r > 1e-6 {
		t.Fatalf("warm solve residual %g", r)
	}
	scale := sparse.Norm2(cold) + 1
	for i := range cold {
		if math.Abs(warm[i]-cold[i]) > 1e-5*scale {
			t.Fatalf("warm[%d]=%g cold[%d]=%g", i, warm[i], i, cold[i])
		}
	}
	t.Logf("cold %d iterations, warm %d", coldSt.Iterations, warmSt.Iterations)
}

func TestNewLaplacianFromSharesUnchangedSetup(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomConnectedGraph(rng, 50)
	s0 := New(g, Options{}, Build{})
	s1 := newFrom(t, g, g, s0, Options{})
	if !s1.ReusedPrecond() {
		t.Fatal("identical graph did not reuse the preconditioner")
	}
	b := projectedRHS(rng, 50)
	want, _, err := solveVec(s0, b)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := solveVec(s1, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shared-setup solve differs at %d", i)
		}
	}
}

// Patched-forest reuse: edits that keep the component structure intact
// reuse (and patch) the previous spanning forest; solutions still agree
// with a cold build within tolerance.
func TestNewLaplacianFromPatchesForest(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(60)
		g0 := randomConnectedGraph(rng, n)
		g1 := perturbGraph(rng, g0, 3)
		s0 := New(g0, Options{Precond: PrecondTree}, Build{})
		s1 := newFrom(t, g1, g0, s0, Options{Precond: PrecondTree})
		cold := New(g1, Options{Precond: PrecondTree}, Build{})

		b := projectedRHS(rng, n)
		want, _, errCold := solveVec(cold, b)
		got, _, errWarm := solveVec(s1, b)
		if (errCold == nil) != (errWarm == nil) {
			t.Fatalf("trial %d: cold err %v, warm err %v", trial, errCold, errWarm)
		}
		if errCold != nil {
			continue
		}
		scale := sparse.Norm2(want) + 1
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-5*scale {
				t.Fatalf("trial %d (reused=%v): solve differs at %d: %g vs %g",
					trial, s1.ReusedPrecond(), i, got[i], want[i])
			}
		}
	}
}

// Deleting a forest edge or bridging two components must force a cold
// rebuild — the patched forest would be structurally wrong.
func TestNewLaplacianFromFallsBackOnTopologyChange(t *testing.T) {
	// Two components: a path 0-1-2 and a path 3-4.
	b0 := graph.NewBuilder(5)
	b0.SetEdge(0, 1, 1)
	b0.SetEdge(1, 2, 1)
	b0.SetEdge(3, 4, 1)
	g0 := b0.MustBuild()
	s0 := New(g0, Options{Precond: PrecondTree}, Build{})

	// Bridge the components: not patchable.
	b1 := graph.NewBuilder(5)
	b1.SetEdge(0, 1, 1)
	b1.SetEdge(1, 2, 1)
	b1.SetEdge(3, 4, 1)
	b1.SetEdge(2, 3, 1)
	g1 := b1.MustBuild()
	if s := newFrom(t, g1, g0, s0, Options{Precond: PrecondTree}); s.ReusedPrecond() {
		t.Fatal("component-merging edge reused the forest")
	}

	// Delete a tree edge: not patchable.
	b2 := graph.NewBuilder(5)
	b2.SetEdge(0, 1, 1)
	b2.SetEdge(3, 4, 1)
	g2 := b2.MustBuild()
	if s := newFrom(t, g2, g0, s0, Options{Precond: PrecondTree}); s.ReusedPrecond() {
		t.Fatal("forest-edge deletion reused the forest")
	}

	// Sanity: the fallback solvers still solve their graphs correctly.
	rng := rand.New(rand.NewSource(19))
	s1 := newFrom(t, g1, g0, s0, Options{Precond: PrecondTree})
	b := projectedRHS(rng, 5)
	x, _, err := solveVec(s1, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(s1, x, b); r > 1e-6 {
		t.Fatalf("fallback solve residual %g", r)
	}
}

// The shared-setup reuse path (an unchanged graph) must give an
// independent solver: concurrent solves on solvers sharing one setup
// match the sequential result.
func TestCloneSolvesIndependently(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomConnectedGraph(rng, 60)
	s := New(g, Options{}, Build{})
	rhs := make([][]float64, 8)
	want := make([][]float64, 8)
	for i := range rhs {
		rhs[i] = projectedRHS(rng, 60)
		x, _, err := solveVec(s, rhs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = x
	}
	shared := make([]*Laplacian, len(rhs))
	for i := range shared {
		shared[i] = New(g, Options{}, Build{Prev: s, PrevG: g})
	}
	got := make([][]float64, 8)
	done := make(chan int, 8)
	for i := range rhs {
		go func(i int) {
			x, _, err := solveVec(shared[i], rhs[i])
			if err == nil {
				got[i] = x
			}
			done <- i
		}(i)
	}
	for range rhs {
		<-done
	}
	for i := range want {
		if got[i] == nil {
			t.Fatalf("clone %d failed", i)
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("clone %d solve differs at %d", i, j)
			}
		}
	}
}
