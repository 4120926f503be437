package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dyngraph/internal/graph"
	"dyngraph/internal/sparse"
)

// randomConnectedGraph returns a random connected weighted graph.
func randomConnectedGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(perm[i-1], perm[i], 0.5+rng.Float64())
	}
	extra := n / 2
	for k := 0; k < extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.SetEdge(i, j, 0.5+rng.Float64())
		}
	}
	return b.MustBuild()
}

// randomTree returns a random weighted tree.
func randomTree(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(rng.Intn(i), i, 0.5+rng.Float64())
	}
	return b.MustBuild()
}

// projectedRHS returns a mean-zero random right-hand side.
func projectedRHS(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	mean := sparse.Sum(b) / float64(n)
	for i := range b {
		b[i] -= mean
	}
	return b
}

// solveVec solves L x = b for one vector, cold, into a new slice.
func solveVec(s *Laplacian, b []float64) ([]float64, Stats, error) {
	x := make([]float64, s.n)
	st, err := s.SolveBlock(x, b, 1, Solve{})
	return x, st[0], err
}

// newFrom builds g's solver reusing prev (built for prevG), diffing the
// snapshots the way the streaming caller does.
func newFrom(t testing.TB, g, prevG *graph.Graph, prev *Laplacian, opt Options) *Laplacian {
	t.Helper()
	diff, err := graph.DiffSupport(prevG, g)
	if err != nil {
		t.Fatal(err)
	}
	return New(g, opt, Build{Prev: prev, PrevG: prevG, Diff: diff})
}

// residual returns ‖P b − L x‖₂ / ‖P b‖₂, with P the projection onto
// range(L).
func residual(s *Laplacian, x, b []float64) float64 {
	pb := append([]float64(nil), b...)
	s.project(pb)
	nb := sparse.Norm2(pb)
	if nb == 0 {
		return 0
	}
	lx := make([]float64, s.n)
	s.l.MulVec(lx, x)
	sparse.Sub(lx, pb, lx)
	return sparse.Norm2(lx) / nb
}

func TestSolveResidualSmall(t *testing.T) {
	for _, prec := range []Precond{PrecondTree, PrecondJacobi, PrecondNone} {
		prec := prec
		t.Run(prec.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			g := randomConnectedGraph(rng, 60)
			s := New(g, Options{Precond: prec}, Build{})
			b := projectedRHS(rng, 60)
			x, st, err := solveVec(s, b)
			if err != nil {
				t.Fatalf("Solve: %v (after %d iters, res %g)", err, st.Iterations, st.Residual)
			}
			if res := residual(s, x, b); res > 1e-7 {
				t.Fatalf("residual %g too large", res)
			}
		})
	}
}

func TestSolveZeroRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnectedGraph(rng, 10)
	s := New(g, Options{}, Build{})
	x, st, err := solveVec(s, make([]float64, 10))
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 0 {
		t.Errorf("iterations = %d, want 0", st.Iterations)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("nonzero solution for zero RHS")
		}
	}
}

func TestSolveConstantRHSProjectedAway(t *testing.T) {
	// b = all-ones lies entirely in the null space; the projected
	// system is 0 = 0 with solution x = 0.
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedGraph(rng, 12)
	s := New(g, Options{}, Build{})
	b := make([]float64, 12)
	for i := range b {
		b[i] = 3
	}
	x, _, err := solveVec(s, b)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Norm2(x) > 1e-10 {
		t.Fatalf("constant RHS should solve to zero, got norm %g", sparse.Norm2(x))
	}
}

func TestSolveDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedGraph(rng, 8)
	s := New(g, Options{}, Build{})
	if _, _, err := solveVec(s, make([]float64, 7)); err == nil {
		t.Fatal("want error on dimension mismatch")
	}
}

func TestSolveDisconnectedGraph(t *testing.T) {
	// Two components plus an isolated vertex; RHS projected per
	// component by the solver itself.
	b := graph.NewBuilder(7)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	// vertex 6 isolated
	g := b.MustBuild()
	s := New(g, Options{}, Build{})
	rhs := []float64{1, -2, 1, 3, -3, 0, 9}
	x, _, err := solveVec(s, rhs)
	if err != nil {
		t.Fatal(err)
	}
	if res := residual(s, x, rhs); res > 1e-7 {
		t.Fatalf("residual %g", res)
	}
	if x[6] != 0 {
		t.Errorf("isolated vertex solution = %g, want 0", x[6])
	}
}

// Property: the spanning-tree solve is exact (one PCG iteration
// amounts to applying the preconditioner) on trees.
func TestQuickTreeSolveExactOnTrees(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomTree(rng, n)
		tr := maxWeightSpanningTree(g)
		b := projectedRHS(rng, n)
		x := make([]float64, n)
		scratch := make([]float64, n)
		tr.solve(x, b, scratch, make([]float64, len(tr.compSize)))
		// Check L x = b directly.
		l := g.Laplacian()
		lx := make([]float64, n)
		l.MulVec(lx, x)
		for i := range lx {
			if math.Abs(lx[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				return false
			}
		}
		// And mean-centered output.
		return math.Abs(sparse.Sum(x)) < 1e-8*float64(n)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: PCG converges with a small residual on random connected
// graphs for every preconditioner.
func TestQuickSolveConverges(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomConnectedGraph(rng, n)
		b := projectedRHS(rng, n)
		for _, prec := range []Precond{PrecondTree, PrecondJacobi} {
			s := New(g, Options{Precond: prec}, Build{})
			x, _, err := solveVec(s, b)
			if err != nil {
				return false
			}
			if residual(s, x, b) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: both preconditioners converge to the same (minimum-norm)
// solution.
func TestQuickPrecondsAgree(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		g := randomConnectedGraph(rng, n)
		b := projectedRHS(rng, n)
		sTree := New(g, Options{Precond: PrecondTree, Tol: 1e-11}, Build{})
		sJac := New(g, Options{Precond: PrecondJacobi, Tol: 1e-11}, Build{})
		xt, _, err1 := solveVec(sTree, b)
		xj, _, err2 := solveVec(sJac, b)
		if err1 != nil || err2 != nil {
			return false
		}
		diff := make([]float64, n)
		sparse.Sub(diff, xt, xj)
		return sparse.Norm2(diff) < 1e-5*(1+sparse.Norm2(xt))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTreePreconditionerSpeedsConvergence(t *testing.T) {
	// On a near-tree graph (a weighted path with wildly varying
	// weights plus a few chords) the spanning-tree preconditioner
	// captures almost the whole system, so PCG should converge in far
	// fewer iterations than plain CG, which suffers from the huge
	// condition number the weight spread induces.
	rng := rand.New(rand.NewSource(42))
	const n = 400
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i-1, i, math.Pow(10, rng.Float64()*6-3)) // weights 1e-3..1e3
	}
	for k := 0; k < 5; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.SetEdge(i, j, 0.01)
		}
	}
	g := b.MustBuild()
	rhs := projectedRHS(rng, n)

	iters := map[Precond]int{}
	for _, prec := range []Precond{PrecondTree, PrecondNone} {
		s := New(g, Options{Precond: prec, MaxIter: 1000000}, Build{})
		_, st, err := solveVec(s, rhs)
		if err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		iters[prec] = st.Iterations
	}
	if iters[PrecondTree]*4 > iters[PrecondNone] {
		t.Fatalf("tree preconditioner should dominate on a near-tree: tree=%d none=%d",
			iters[PrecondTree], iters[PrecondNone])
	}
}

func TestPrecondAutoSelectsByDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sparseG := randomTree(rng, 50) // avg degree < 2
	dense := graph.NewBuilder(30)
	for i := 0; i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			dense.AddEdge(i, j, 1)
		}
	}
	denseG := dense.MustBuild() // avg degree 29

	if s := New(sparseG, Options{}, Build{}); s.precond != PrecondTree {
		t.Fatalf("sparse graph resolved to %v, want tree", s.precond)
	}
	if s := New(denseG, Options{}, Build{}); s.precond != PrecondJacobi {
		t.Fatalf("dense graph resolved to %v, want jacobi", s.precond)
	}
	// Explicit choices are honored verbatim.
	if s := New(denseG, Options{Precond: PrecondTree}, Build{}); s.precond != PrecondTree {
		t.Fatal("explicit tree overridden")
	}
}

func TestUnionFind(t *testing.T) {
	u := newUnionFind(5)
	if !u.union(0, 1) {
		t.Fatal("first union returned false")
	}
	if u.union(1, 0) {
		t.Fatal("repeat union returned true")
	}
	u.union(2, 3)
	u.union(0, 3)
	if u.find(1) != u.find(2) {
		t.Fatal("1 and 2 should share a root")
	}
	if u.find(4) == u.find(0) {
		t.Fatal("4 should be separate")
	}
}

func TestMaxWeightSpanningTreeKeepsHeavyEdges(t *testing.T) {
	// Triangle with one light edge: the light edge must be excluded.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 10)
	b.AddEdge(1, 2, 10)
	b.AddEdge(0, 2, 0.1)
	g := b.MustBuild()
	tr := maxWeightSpanningTree(g)
	var total float64
	for v := 0; v < 3; v++ {
		total += tr.upWeight[v]
	}
	if math.Abs(total-20) > 1e-12 {
		t.Fatalf("tree weight = %g, want 20", total)
	}
}
