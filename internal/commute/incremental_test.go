package commute

import (
	"math"
	"math/rand"
	"testing"

	"dyngraph/internal/graph"
)

// editGraph returns g with a few edge edits (reweights, inserts,
// deletes) that keep the graph connected with high probability.
func editGraph(rng *rand.Rand, g *graph.Graph, edits int) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.SetEdge(e.I, e.J, e.W)
	}
	edges := g.Edges()
	for k := 0; k < edits; k++ {
		switch rng.Intn(3) {
		case 0:
			e := edges[rng.Intn(len(edges))]
			b.SetEdge(e.I, e.J, 0.5+rng.Float64())
		case 1:
			i, j := rng.Intn(g.N()), rng.Intn(g.N())
			if i != j {
				b.SetEdge(i, j, 0.5+rng.Float64())
			}
		default:
			e := edges[rng.Intn(len(edges))]
			b.SetEdge(e.I, e.J, 0)
		}
	}
	return b.MustBuild()
}

// SharedProjections embeddings must stay a pure function of
// (graph, K, Seed): a warm rebuild on the unchanged graph reproduces
// the previous embedding bit-for-bit with zero PCG iterations.
func TestEmbeddingFromUnchangedGraphIsBitIdentical(t *testing.T) {
	g := benchGraph(300)
	cfg := Config{K: 12, Seed: 9, SharedProjections: true}
	cold, err := NewEmbedding(g, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewEmbedding(g, cold, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if !st.Warm || !st.PrecondReused {
		t.Fatalf("unchanged rebuild not warm: %+v", st)
	}
	if st.PCGIterations != 0 {
		t.Fatalf("unchanged rebuild performed %d PCG iterations, want 0", st.PCGIterations)
	}
	for i := range cold.z {
		if warm.z[i] != cold.z[i] {
			t.Fatalf("embedding differs at %d: %g vs %g", i, warm.z[i], cold.z[i])
		}
	}
}

// A warm build across a small edit must agree with a cold
// SharedProjections build of the edited graph within solver tolerance,
// and must need strictly fewer PCG iterations.
func TestEmbeddingFromSmallEditAgreesWithCold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g0 := benchGraph(400)
	g1 := editGraph(rng, g0, 5)
	cfg := Config{K: 12, Seed: 9, SharedProjections: true}

	prev, err := NewEmbedding(g0, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewEmbedding(g1, prev, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewEmbedding(g1, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats().Warm {
		t.Fatal("edit rebuild did not take the warm path")
	}
	if w, c := warm.Stats().PCGIterations, cold.Stats().PCGIterations; w >= c {
		t.Errorf("warm build used %d PCG iterations, cold %d — no saving", w, c)
	}
	// Distances agree within a tolerance-driven bound. Commute distances
	// scale with the volume, so compare relative to it.
	scale := g1.Volume()
	for trial := 0; trial < 2000; trial++ {
		i, j := rng.Intn(g1.N()), rng.Intn(g1.N())
		dw, dc := warm.Distance(i, j), cold.Distance(i, j)
		if math.Abs(dw-dc) > 1e-5*scale {
			t.Fatalf("distance(%d,%d): warm %g, cold %g", i, j, dw, dc)
		}
	}
}

// Incompatible previous embeddings (different seed, K, or shared mode
// off) must be ignored, not silently reused.
func TestEmbeddingFromRejectsIncompatiblePrev(t *testing.T) {
	g := benchGraph(300)
	base := Config{K: 10, Seed: 1, SharedProjections: true}
	prev, err := NewEmbedding(g, nil, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{K: 10, Seed: 2, SharedProjections: true},  // seed changed
		{K: 12, Seed: 1, SharedProjections: true},  // k changed
		{K: 10, Seed: 1, SharedProjections: false}, // shared off
	}
	for ci, cfg := range cases {
		emb, err := NewEmbedding(g, prev, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if emb.Stats().Warm {
			t.Errorf("case %d: incompatible prev was reused", ci)
		}
	}
}

// The warm path must give identical results for any Workers value,
// like the cold path does.
func TestEmbeddingFromWorkersInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g0 := benchGraph(300)
	g1 := editGraph(rng, g0, 4)
	cfg := Config{K: 8, Seed: 3, SharedProjections: true}
	prev, err := NewEmbedding(g0, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewEmbedding(g1, prev, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfgPar := cfg
	cfgPar.Workers = 4
	par, err := NewEmbedding(g1, prev, cfgPar, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.z {
		if seq.z[i] != par.z[i] {
			t.Fatalf("workers changed the warm embedding at %d", i)
		}
	}
}

// SharedProjections must not change the statistical quality of a
// single embedding: distances still approximate the exact oracle.
func TestSharedProjectionsApproximatesExact(t *testing.T) {
	g := benchGraph(250)
	exact := NewExact(g)
	emb, err := NewEmbedding(g, nil, Config{K: 200, Seed: 5, SharedProjections: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	var relErr float64
	const pairs = 300
	for p := 0; p < pairs; p++ {
		i, j := rng.Intn(g.N()), rng.Intn(g.N())
		for i == j {
			j = rng.Intn(g.N())
		}
		de, da := exact.Distance(i, j), emb.Distance(i, j)
		relErr += math.Abs(da-de) / (de + 1e-12)
	}
	if avg := relErr / pairs; avg > 0.35 {
		t.Fatalf("mean relative error %.3f too high for k=200", avg)
	}
}
