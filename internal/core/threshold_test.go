package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dyngraph/internal/commute"
	"dyngraph/internal/graph"
	"dyngraph/internal/solver"
)

// randomScores builds a sorted-descending random score list.
func randomScores(rng *rand.Rand, n int) []EdgeScore {
	out := make([]EdgeScore, n)
	for i := range out {
		out[i] = EdgeScore{I: i, J: i + 1 + rng.Intn(5) + n, Score: rng.ExpFloat64()}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out
}

// Property: AnomalousEdges returns the *minimal* prefix — removing its
// last element leaves residual mass ≥ δ, and the returned prefix's
// residual is < δ.
func TestQuickAnomalousEdgesMinimality(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scores := randomScores(rng, 1+rng.Intn(40))
		total := TotalScore(scores)
		delta := rng.Float64() * total * 1.2
		picked := AnomalousEdges(scores, delta)

		residual := total - TotalScore(picked)
		if len(picked) > 0 && residual >= delta {
			return false // not enough peeled
		}
		if len(picked) == 0 {
			return total < delta // nothing peeled only if already below δ
		}
		// Minimality: one fewer edge would not satisfy the constraint.
		shorter := picked[:len(picked)-1]
		return total-TotalScore(shorter) >= delta
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the anomalous edge set shrinks monotonically as δ grows.
func TestQuickAnomalousEdgesMonotoneInDelta(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scores := randomScores(rng, 1+rng.Intn(30))
		total := TotalScore(scores)
		d1 := rng.Float64() * total
		d2 := d1 + rng.Float64()*total
		return len(AnomalousEdges(scores, d2)) <= len(AnomalousEdges(scores, d1))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: SelectDelta's node total is ≥ the target when the target is
// achievable, and the next-larger δ would fall below it.
func TestQuickSelectDeltaHitsBudget(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nTr := 1 + rng.Intn(5)
		trs := make([]Transition, nTr)
		for i := range trs {
			s := randomScores(rng, 1+rng.Intn(20))
			trs[i] = Transition{T: i, Scores: s, Total: TotalScore(s)}
		}
		l := 1 + rng.Float64()*5
		target := int(l * float64(nTr))
		delta := SelectDelta(trs, l)
		got := totalNodesAt(trs, delta)
		maxPossible := totalNodesAt(trs, 0)
		if maxPossible < target {
			return delta == 0 // budget unreachable: δ=0 reports all
		}
		next := math.Nextafter(delta, math.Inf(1))
		return got >= target && totalNodesAt(trs, next) < target
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// --- Failure injection ---

func TestRunSurfacesSolverFailure(t *testing.T) {
	// A graph big enough to take the embedding path, with a solver
	// budget of one iteration and an absurd tolerance: the embedding
	// must fail loudly and Detector.Run must propagate it.
	rng := rand.New(rand.NewSource(1))
	b := graph.NewBuilder(50)
	for i := 1; i < 50; i++ {
		b.AddEdge(i-1, i, 0.5+rng.Float64())
	}
	for k := 0; k < 100; k++ {
		i, j := rng.Intn(50), rng.Intn(50)
		if i != j {
			b.SetEdge(i, j, rng.Float64())
		}
	}
	g := b.MustBuild()
	b2 := graph.NewBuilder(50)
	for _, e := range g.Edges() {
		b2.SetEdge(e.I, e.J, e.W+0.01)
	}
	seq := graph.MustSequence([]*graph.Graph{g, b2.MustBuild()})

	det := New(Config{
		Commute: commute.Config{
			K:      4,
			Solver: solver.Options{MaxIter: 1, Tol: 1e-15},
		},
		ExactCutoff: 1, // force the embedding
	})
	if _, err := det.Run(seq); err == nil {
		t.Fatal("want propagated solver-convergence error")
	}
}

func TestRunOnEmptyGraphs(t *testing.T) {
	// All-empty instances: no scores, no panic, no anomalies.
	e1 := graph.NewBuilder(6).MustBuild()
	e2 := graph.NewBuilder(6).MustBuild()
	seq := graph.MustSequence([]*graph.Graph{e1, e2})
	trs, err := New(Config{}).Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs[0].Scores) != 0 {
		t.Fatalf("empty graphs scored %d edges", len(trs[0].Scores))
	}
	rep := Threshold(trs, SelectDelta(trs, 3))
	if rep.Transitions[0].Anomalous() {
		t.Fatal("empty transition flagged anomalous")
	}
}

func TestRunEmptyToNonEmpty(t *testing.T) {
	// First instance empty, second has one edge: the new edge must be
	// the (only) anomaly, with a finite score.
	e := graph.NewBuilder(4).MustBuild()
	b := graph.NewBuilder(4)
	b.AddEdge(1, 2, 5)
	seq := graph.MustSequence([]*graph.Graph{e, b.MustBuild()})
	trs, err := New(Config{}).Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs[0].Scores) != 1 {
		t.Fatalf("scores = %v", trs[0].Scores)
	}
	s := trs[0].Scores[0]
	if s.I != 1 || s.J != 2 || s.Score <= 0 {
		t.Fatalf("unexpected top score %+v", s)
	}
}

func TestRunSingleVertexGraphs(t *testing.T) {
	g := graph.NewBuilder(1).MustBuild()
	seq := graph.MustSequence([]*graph.Graph{g, g})
	trs, err := New(Config{}).Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs[0].Scores) != 0 {
		t.Fatal("single-vertex graph scored edges")
	}
}
