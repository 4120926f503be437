package solver

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dyngraph/internal/graph"
)

// reweighted returns g with every edge weight redrawn: a pure reweight,
// across which a patched solver keeps its spanning forest.
func reweighted(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.SetEdge(e.I, e.J, 0.5+rng.Float64())
	}
	return b.MustBuild()
}

// TestRestoreAdoptsPatchedForest: a solver patched across reweights
// keeps its first forest, which Kruskal would not pick for the current
// graph. Restore from the persisted forest must solve bit-identically to
// the patched solver.
func TestRestoreAdoptsPatchedForest(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomConnectedGraph(rng, 60)
	opt := Options{Tol: 1e-10}
	s := New(g, opt, Build{})
	if s.Forest() == nil {
		t.Fatal("sparse graph did not resolve to the tree preconditioner")
	}
	for step := 0; step < 4; step++ {
		next := reweighted(rng, g)
		s = newFrom(t, next, g, s, opt)
		g = next
	}
	f := s.Forest()
	if reflect.DeepEqual(f, New(g, opt, Build{}).Forest()) {
		t.Fatal("patched forest equals a fresh Kruskal forest; the comparison below would be vacuous")
	}
	r, err := Restore(g, opt, f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Forest(), f) {
		t.Fatal("restored solver does not hold the persisted forest")
	}

	const k = 3
	b := make([]float64, g.N()*k)
	for c := 0; c < k; c++ {
		col := projectedRHS(rng, g.N())
		for i, v := range col {
			b[i*k+c] = v
		}
	}
	want := make([]float64, len(b))
	wantSt, err := s.SolveBlock(want, b, k, Solve{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(b))
	gotSt, err := r.SolveBlock(got, b, k, Solve{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("restored solve differs at %d: %g vs %g", i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatalf("restored solve stats %+v, patched %+v", gotSt, wantSt)
	}
}

// TestRestoreJacobiMatchesCold: without a forest there is nothing to
// adopt, and Restore is the cold build.
func TestRestoreJacobiMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedGraph(rng, 40)
	opt := Options{Precond: PrecondJacobi}
	r, err := Restore(g, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := New(g, opt, Build{})
	b := projectedRHS(rng, g.N())
	want, _, err := solveVec(cold, b)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := solveVec(r, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Jacobi restore differs from the cold build")
	}
}

// TestRestoreRejectsMalformedForest: a persisted forest comes from disk
// or a replica, so anything that is not a spanning forest of the graph
// must be refused with an error, never adopted or panicked on.
func TestRestoreRejectsMalformedForest(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnectedGraph(rng, 30)
	n := g.N()
	base := New(g, Options{}, Build{}).Forest()
	last := int(base.Order[n-1])
	nonNeighbor := -1
	for _, u := range base.Order[:n-1] {
		if int(u) != last && g.Weight(last, int(u)) == 0 {
			nonNeighbor = int(u)
			break
		}
	}
	if nonNeighbor < 0 {
		t.Fatal("test graph has no non-neighbour for the last vertex")
	}

	cases := []struct {
		name   string
		mutate func(f *Forest)
		want   string
	}{
		{"short parent block", func(f *Forest) { f.Parent = f.Parent[:n-1] }, "parents"},
		{"order repeats a vertex", func(f *Forest) { f.Order[1] = f.Order[0] }, "permutation"},
		{"order out of range", func(f *Forest) { f.Order[2] = int32(n) }, "permutation"},
		{"parent out of range", func(f *Forest) { f.Parent[last] = int32(n + 7) }, "listed before"},
		{"parent listed after child", func(f *Forest) { f.Parent[f.Order[1]] = int32(last) }, "listed before"},
		{"self parent", func(f *Forest) { f.Parent[last] = int32(last) }, "listed before"},
		{"parent edge absent", func(f *Forest) { f.Parent[last] = int32(nonNeighbor) }, "not an edge"},
		{"extra root", func(f *Forest) { f.Parent[last] = -1 }, "trees for"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &Forest{
				Parent: append([]int32(nil), base.Parent...),
				Order:  append([]int32(nil), base.Order...),
			}
			tc.mutate(f)
			_, err := Restore(g, Options{}, f)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}

	if _, err := Restore(g, Options{}, nil); err == nil {
		t.Fatal("tree-preconditioned restore without its forest accepted")
	}
	if _, err := Restore(g, Options{Precond: PrecondJacobi}, base); err == nil {
		t.Fatal("forest accepted for a Jacobi solver")
	}
}
