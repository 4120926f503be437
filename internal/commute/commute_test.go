package commute

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dyngraph/internal/graph"
	"dyngraph/internal/solver"
)

// pathGraph returns the unweighted path 0-1-...-(n-1).
func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i-1, i, 1)
	}
	return b.MustBuild()
}

// completeGraph returns K_n with unit weights.
func completeGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j, 1)
		}
	}
	return b.MustBuild()
}

// effectiveResistance returns r(i,j) = c(i,j)/V_G, for checks against
// closed-form resistances on paths, cycles and cliques.
func effectiveResistance(e *Exact, i, j int) float64 {
	if e.volume == 0 {
		return math.Inf(1)
	}
	return e.Distance(i, j) / e.volume
}

// cycleGraph returns the unweighted n-cycle.
func cycleGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n, 1)
	}
	return b.MustBuild()
}

func randomConnected(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(perm[i-1], perm[i], 0.5+rng.Float64())
	}
	for k := 0; k < n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.SetEdge(i, j, 0.5+rng.Float64())
		}
	}
	return b.MustBuild()
}

// Closed form: on a unit path, effective resistance between i and j is
// |i-j|, so c(i,j) = V_G·|i-j| = 2(n-1)|i-j|.
func TestExactPathClosedForm(t *testing.T) {
	const n = 8
	g := pathGraph(n)
	e := NewExact(g)
	vg := 2.0 * (n - 1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := vg * math.Abs(float64(i-j))
			if got := e.Distance(i, j); math.Abs(got-want) > 1e-6*vg {
				t.Fatalf("c(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

// Closed form: on K_n, resistance between distinct nodes is 2/n, and
// the classical commute time is c(i,j) = V_G·2/n = 2(n-1).
func TestExactCompleteClosedForm(t *testing.T) {
	const n = 7
	g := completeGraph(n)
	e := NewExact(g)
	want := 2.0 * (n - 1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if got := e.Distance(i, j); math.Abs(got-want) > 1e-6*want {
				t.Fatalf("c(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

// Closed form: on an n-cycle, resistance between nodes k apart is
// k(n-k)/n.
func TestExactCycleClosedForm(t *testing.T) {
	const n = 9
	g := cycleGraph(n)
	e := NewExact(g)
	for k := 1; k < n; k++ {
		want := float64(k*(n-k)) / float64(n)
		if got := effectiveResistance(e, 0, k); math.Abs(got-want) > 1e-8 {
			t.Fatalf("r(0,%d) = %g, want %g", k, got, want)
		}
	}
}

func TestExactDisconnectedBlockFormula(t *testing.T) {
	// Two disjoint unit edges: per the block-pseudoinverse convention,
	// c(0,2) = V_G (l+00 + l+22). Each K2 block's pseudoinverse has
	// diagonal 1/4 (L = [[1,-1],[-1,1]], L+ = L/4), and V_G = 4, so the
	// cross-component distance is 4·(1/4 + 1/4) = 2, while the
	// within-component commute c(0,1) = 4·1 = 4.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	e := NewExact(b.MustBuild())
	if d := e.Distance(0, 2); math.Abs(d-2) > 1e-9 {
		t.Fatalf("cross-component distance = %g, want block value 2", d)
	}
	if d := e.Distance(0, 1); math.Abs(d-4) > 1e-9 {
		t.Fatalf("within-component commute = %g, want 4", d)
	}
}

func TestExactSelfDistanceZero(t *testing.T) {
	e := NewExact(pathGraph(5))
	if d := e.Distance(3, 3); d != 0 {
		t.Fatalf("c(i,i) = %g, want 0", d)
	}
}

// Property: exact commute time is a metric — symmetric, positive on
// distinct vertices of a connected graph, and satisfying the triangle
// inequality.
func TestQuickExactIsMetric(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		g := randomConnected(rng, n)
		e := NewExact(g)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dij := e.Distance(i, j)
				if math.Abs(dij-e.Distance(j, i)) > 1e-6*(1+dij) {
					return false
				}
				if i != j && dij <= 0 {
					return false
				}
				for k := 0; k < n; k++ {
					if dij > e.Distance(i, k)+e.Distance(k, j)+1e-6*(1+dij) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: commute time shrinks (weakly) when an edge weight
// increases — Rayleigh monotonicity of effective resistance.
func TestQuickRayleighMonotonicity(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := randomConnected(rng, n)
		// Double the weight of one random existing edge.
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		b := graph.NewBuilder(n)
		for _, ed := range edges {
			b.SetEdge(ed.I, ed.J, ed.W)
		}
		b.SetEdge(e.I, e.J, e.W*2)
		g2 := b.MustBuild()
		r1 := NewExact(g)
		r2 := NewExact(g2)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				// Resistance (commute/volume) must not increase.
				if effectiveResistance(r2, i, j) > effectiveResistance(r1, i, j)+1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEmbeddingApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnected(rng, 40)
	exact := NewExact(g)
	emb, err := NewEmbedding(g, nil, Config{K: 400, Seed: 1, Solver: solver.Options{Tol: 1e-10}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With k = 400 the Johnson–Lindenstrauss error is small; check the
	// mean relative error over all pairs rather than the worst case.
	var relSum float64
	var count int
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			ex, ap := exact.Distance(i, j), emb.Distance(i, j)
			relSum += math.Abs(ap-ex) / ex
			count++
		}
	}
	if mean := relSum / float64(count); mean > 0.15 {
		t.Fatalf("mean relative embedding error %g too large", mean)
	}
}

func TestEmbeddingDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomConnected(rng, 20)
	a, err := NewEmbedding(g, nil, Config{K: 8, Seed: 99}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEmbedding(g, nil, Config{K: 8, Seed: 99}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			if a.Distance(i, j) != b.Distance(i, j) {
				t.Fatal("same seed produced different embeddings")
			}
		}
	}
}

func TestEmbeddingDisconnectedMatchesExactBlockFormula(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	g := b.MustBuild()
	exact := NewExact(g)
	emb, err := NewEmbedding(g, nil, Config{K: 600, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-component distances follow the same block-pseudoinverse
	// convention as the exact oracle (to JL-approximation error).
	ex, ap := exact.Distance(0, 4), emb.Distance(0, 4)
	if math.Abs(ap-ex)/ex > 0.25 {
		t.Fatalf("cross-component embedding %g vs exact %g", ap, ex)
	}
	if d := emb.Distance(0, 2); math.IsInf(d, 1) || d <= 0 {
		t.Fatalf("within-component distance = %g", d)
	}
}

func TestNewSelectsOracleBySize(t *testing.T) {
	small := pathGraph(10)
	o, err := New(small, nil, Config{K: 4, Seed: 1}, 400, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := o.(*Exact); !ok {
		t.Fatalf("small graph should use exact oracle, got %T", o)
	}
	o, err = New(small, nil, Config{K: 4, Seed: 1}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := o.(*Embedding); !ok {
		t.Fatalf("above cutoff should use embedding, got %T", o)
	}
}

func TestConfigDefaults(t *testing.T) {
	if (Config{}).k() != 50 {
		t.Fatalf("default k = %d, want 50", (Config{}).k())
	}
}

func TestEmbeddingParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomConnected(rng, 60)
	seq, err := NewEmbedding(g, nil, Config{K: 16, Seed: 5, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEmbedding(g, nil, Config{K: 16, Seed: 5, Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			a, b := seq.Distance(i, j), par.Distance(i, j)
			if math.Abs(a-b) > 1e-9*(1+a) {
				t.Fatalf("parallel embedding diverged at (%d,%d): %g vs %g", i, j, a, b)
			}
		}
	}
}

func TestEmbeddingWorkersExceedingK(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := randomConnected(rng, 20)
	// Workers shards matrix rows, not solves, so worker counts beyond k
	// (and beyond the row count's worth of useful shards) must still
	// work.
	if _, err := NewEmbedding(g, nil, Config{K: 3, Seed: 1, Workers: 16}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathOracleBasics(t *testing.T) {
	g := pathGraph(5) // unit weights → edge length 1
	sp := NewShortestPath(g)
	if d := sp.Distance(0, 4); math.Abs(d-4) > 1e-12 {
		t.Fatalf("path distance = %g, want 4", d)
	}
	if d := sp.Distance(2, 2); d != 0 {
		t.Fatalf("self distance = %g", d)
	}
	if a, b := sp.Distance(1, 3), sp.Distance(3, 1); a != b {
		t.Fatalf("asymmetric: %g vs %g", a, b)
	}
	if sp.N() != 5 {
		t.Fatalf("N = %d", sp.N())
	}
}

func TestShortestPathWeightsShortenDistance(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 4) // length 0.25
	b.AddEdge(1, 2, 1) // length 1
	sp := NewShortestPath(b.MustBuild())
	if d := sp.Distance(0, 2); math.Abs(d-1.25) > 1e-12 {
		t.Fatalf("distance = %g, want 1.25", d)
	}
}

func TestShortestPathDisconnectedSentinel(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	sp := NewShortestPath(b.MustBuild())
	d := sp.Distance(0, 2)
	if math.IsInf(d, 1) {
		t.Fatal("cross-component should be a finite sentinel")
	}
	if d <= sp.Distance(0, 1) {
		t.Fatal("sentinel should exceed any real distance")
	}
}

func TestShortestPathMemoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomConnected(rng, 30)
	sp := NewShortestPath(g)
	// Query in both orders: the second must hit the memo and agree.
	a := sp.Distance(3, 17)
	b := sp.Distance(17, 3)
	if a != b {
		t.Fatalf("memoized reverse query disagrees: %g vs %g", a, b)
	}
}
