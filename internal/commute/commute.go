// Package commute computes commute-time distances between graph nodes,
// the structural metric at the heart of CAD (paper §3.1).
//
// Two oracles are provided, mirroring the paper:
//
//   - Exact: c(i,j) = V_G (l⁺_ii + l⁺_jj − 2 l⁺_ij) from the dense
//     Moore–Penrose pseudoinverse of the Laplacian (equation (3)).
//     O(n³) once, O(1) per pair; what the paper uses for the 17-node
//     toy example and the 151-node Enron graphs.
//
//   - Embedding: the Khoa–Chawla [15] approximate commute-time
//     embedding. Draw a k×m random ±1/√k projection Q, push it through
//     the weighted incidence operator, and solve k Laplacian systems;
//     then c(i,j) ≈ V_G ‖z_i − z_j‖² for the k-dimensional embedding
//     vectors z. With a fast SDD solver this is O(n log n) for sparse
//     graphs, which is what gives CAD its headline runtime.
//
// A note on disconnected graphs: the true commute time between
// vertices in different components is infinite, but equation (3)
// evaluated on the block pseudoinverse yields the large finite value
// V_G·(l⁺_ii + l⁺_jj) — and that is what the paper's reference
// implementation (and therefore its reported scores) computes. Both
// oracles follow that convention: cross-component pairs get large
// finite distances, which keeps CAD's ΔE = |ΔA|·|Δc| able to rank two
// component-bridging changes by their weight change rather than
// collapsing both to the same clamp value.
package commute

import (
	"fmt"
	"math"
	"slices"

	"dyngraph/internal/dense"
	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
	"dyngraph/internal/solver"
	"dyngraph/internal/sparse"
	"dyngraph/internal/xrand"
)

// Oracle answers commute-time distance queries on one fixed graph.
type Oracle interface {
	// Distance returns the commute-time distance c(i, j): 0 when
	// i == j, the paper's equation (3) within a component, and the
	// block-pseudoinverse value V_G·(l⁺_ii + l⁺_jj) across components
	// (see the package comment).
	Distance(i, j int) float64
	// N returns the number of vertices.
	N() int
}

// Exact computes commute times from the dense pseudoinverse of the
// graph Laplacian.
type Exact struct {
	n      int
	volume float64
	lplus  *dense.Matrix
}

// NewExact builds the exact oracle. It costs O(n³) time and O(n²)
// memory; intended for n up to a few thousand.
func NewExact(g *graph.Graph) *Exact {
	return &Exact{
		n:      g.N(),
		volume: g.Volume(),
		lplus:  dense.PseudoInverse(g.DenseLaplacian()),
	}
}

// N implements Oracle.
func (e *Exact) N() int { return e.n }

// Distance implements Oracle via equation (3) of the paper.
func (e *Exact) Distance(i, j int) float64 {
	if i == j {
		return 0
	}
	lii := e.lplus.At(i, i)
	ljj := e.lplus.At(j, j)
	lij := e.lplus.At(i, j)
	d := e.volume * (lii + ljj - 2*lij)
	if d < 0 { // numerical noise on near-identical vertices
		return 0
	}
	return d
}

// Config configures the approximate embedding oracle.
type Config struct {
	// K is the embedding dimension (the paper's k, aka k_RP in [15]).
	// Zero means the paper's default of 50.
	K int
	// Seed drives the random projection; equal seeds give identical
	// embeddings regardless of Workers (each projection row has its own
	// derived stream).
	Seed int64
	// SharedProjections switches the projection's Rademacher draws from
	// a per-build sequential stream to a hash of (Seed, row, edge), so
	// the coefficient of every edge is independent of which other edges
	// exist. Across consecutive snapshots of a stream this gives common
	// random numbers: a row's right-hand side changes only where edges
	// changed, which is what lets NewEmbedding warm-start each
	// solve from the previous snapshot's solution, and it reduces the
	// variance of commute-time *differences* between snapshots (the
	// quantity CAD scores). The paper's experiments instead draw
	// independent projections per instance; leave this false to
	// reproduce them. Either way each single embedding is an unbiased
	// Johnson–Lindenstrauss sketch of the same quality.
	SharedProjections bool
	// Solver configures the Laplacian solves.
	Solver solver.Options
	// Workers is the number of goroutines sharing the blocked solve's
	// sparse matrix-block products (row-sharded SpMM). Zero or one
	// means serial. The embedding is identical for any Workers value:
	// each output row is owned by exactly one shard and computed with
	// the serial kernel's arithmetic. Parallelism only pays on large
	// graphs — the SpMM is sharded per PCG iteration — so choose
	// Workers ≈ CPU cores for n in the tens of thousands and leave it
	// at 1 for small ones.
	Workers int
	// IncrementalUpdates enables the low-rank (Woodbury) update path in
	// NewEmbedding: when consecutive snapshots differ by at
	// most IncrementalMaxEdits edges and the component structure is
	// unchanged, the embedding block is corrected directly — one base
	// solve per edited edge plus O(n·k) dense work — instead of
	// re-running blocked PCG, with the warm path as automatic fallback.
	// Requires SharedProjections (the correction's ΔY = B·S identity is
	// the common-random-numbers property). Off by default.
	IncrementalUpdates bool
	// IncrementalMaxEdits is the edit budget above which the
	// incremental path hands over to warm-started PCG (each edit costs
	// one base solve, so large diffs are cheaper as one blocked solve).
	// Zero means the default max(1, K/4), the measured crossover.
	IncrementalMaxEdits int
}

func (c Config) k() int {
	if c.K <= 0 {
		return 50
	}
	return c.K
}

func (c Config) workers() int {
	if c.Workers <= 1 {
		return 1
	}
	return c.Workers
}

// retainRHS reports whether builds should keep the assembled
// right-hand-side block for the low-rank update path.
func (c Config) retainRHS() bool {
	return c.IncrementalUpdates && c.SharedProjections
}

// incrementalMaxEdits is the edit budget for the low-rank path: each
// edited edge costs one single-RHS base solve, so past roughly a
// quarter of the block width one warm blocked solve is cheaper.
func (c Config) incrementalMaxEdits() int {
	if c.IncrementalMaxEdits > 0 {
		return c.IncrementalMaxEdits
	}
	if m := c.k() / 4; m > 1 {
		return m
	}
	return 1
}

// embedKey fingerprints the configuration an embedding was built with,
// for deciding whether a later build may warm-start from it.
type embedKey struct {
	k      int
	seed   int64
	shared bool
	solver solver.Options
}

func (c Config) key() embedKey {
	return embedKey{k: c.k(), seed: c.Seed, shared: c.SharedProjections, solver: c.Solver}
}

// BuildStats reports the work one embedding build performed.
type BuildStats struct {
	// Rows is the number of Laplacian systems solved (the embedding
	// dimension k).
	Rows int
	// PCGIterations is the total preconditioned-CG iteration count
	// across all rows — the embedding's dominant cost, and the quantity
	// warm starts shrink.
	PCGIterations int
	// BlockIterations is the number of blocked-PCG iterations the build
	// performed — the maximum per-row count, since the block solver
	// carries all k rows per iteration and deactivates rows as they
	// converge. Each block iteration streams the Laplacian once, so
	// this (not PCGIterations) counts matrix traversals.
	BlockIterations int
	// Warm is true when the rows were warm-started from a previous
	// snapshot's embedding (NewEmbedding with a compatible prev).
	Warm bool
	// PrecondReused is true when the solver's preconditioner setup was
	// shared or patched from the previous snapshot instead of rebuilt.
	PrecondReused bool
	// Mode is the build path taken: "cold" (no reusable previous
	// embedding), "warm" (blocked PCG warm-started from the previous
	// solution block) or "incremental" (low-rank Woodbury correction,
	// verified on the new operator). The incremental mode also reports
	// Warm=true: its verification solve is a warm-started block solve.
	Mode string
	// BaseSolves is the number of incidence-column base solves the
	// incremental path performed — one per edited edge; zero for the
	// other modes.
	BaseSolves int
	// VerifySkipped is true when the incremental path's residual
	// certificate proved the corrected block already met tolerance, so
	// the verification solve (and its operator pass) was skipped. The
	// skip is bit-identical to running the verification: the bound
	// certifies the converged-guess early exit would have returned the
	// block unchanged.
	VerifySkipped bool
}

// Embedding is the approximate commute-time oracle. Vertex i's
// embedding vector is stored contiguously, so Distance is a k-length
// squared-distance scan.
type Embedding struct {
	n      int
	k      int
	volume float64
	z      []float64 // n*k, z[i*k:(i+1)*k] is vertex i's vector

	// Retained for incremental rebuilds (NewEmbedding): the graph
	// this embedding belongs to, the solver whose preconditioner the
	// next snapshot may patch (nil on a restored per-instance
	// embedding, which no build reuses), and the config fingerprint
	// that gates reuse. g and lap are immutable once built, and so are
	// z, y, resBound and normB: later builds copy them before writing,
	// which is what lets State share them.
	g     *graph.Graph
	lap   *solver.Laplacian
	key   embedKey
	stats BuildStats

	// y is the n×k right-hand-side block this embedding solved, kept
	// only when Config.IncrementalUpdates is on: the Woodbury path
	// patches it in O(edits·k) instead of re-hashing every edge, and
	// its verification solve needs the full block. Nil otherwise.
	y []float64

	// Per-column residual certificates, kept alongside y for the
	// incremental path. resBound[c] is a proven upper bound on the
	// absolute residual ‖P y_c − L z_c‖₂ of column c against THIS
	// embedding's operator; normB[c] is a lower bound on ‖P y_c‖₂. A
	// fresh build records the measured values; each Woodbury push grows
	// resBound by the exact residual propagation Σ_e ‖r_e‖·|W_{e,c}|
	// and shrinks normB by the RHS perturbation, and while
	// resBound[c] ≤ tol·normB[c] still holds for every column the
	// verification solve would provably return the corrected block
	// bit-for-bit unchanged — so it is skipped. Nil when unknown
	// (always verify).
	resBound []float64
	normB    []float64
}

// Stats reports the work this embedding's build performed.
func (e *Embedding) Stats() BuildStats { return e.stats }

// reuses reports whether a build of g under c may reuse prev: it needs
// shared projections (row right-hand sides that change only where edges
// changed), the same K, Seed and solver configuration, and a vertex set
// that did not shrink. A grown one keeps prev: edge-keyed projection
// signs are position-independent, so the retained rows' solutions stay
// valid warm guesses and the new vertices' rows start at zero.
func (c Config) reuses(prev *Embedding, g *graph.Graph) bool {
	return prev != nil && c.SharedProjections && prev.g != nil &&
		prev.n <= g.N() && prev.key == c.key()
}

// NewEmbedding builds the approximate oracle for g by performing k
// Laplacian solves, reusing prev — the previous snapshot's embedding,
// or nil — wherever that is sound (see Config.SharedProjections). It is
// the one place that picks the build path, recorded in Stats().Mode:
//
//   - "cold": no reusable prev — one blocked solve from scratch.
//   - "incremental": Config.IncrementalUpdates is on and g differs from
//     prev's graph by at most the edit budget within an unchanged
//     component structure — prev's block is corrected by the low-rank
//     Woodbury identity (see incremental.go).
//   - "warm": any other reusable prev — blocked PCG warm-started from
//     prev's solution block, on a solver that shares or patches prev's
//     preconditioner. Consecutive snapshots of a sparse stream differ
//     by a few edges, so this typically needs a small fraction of a
//     cold build's iterations; on an unchanged graph the rebuild is
//     free and bit-identical to prev.
//
// span is the parent of the build's "precond", "woodbury", "projection"
// and "pcg" spans; nil disables them. A solver convergence failure is
// reported as an error (the partial embedding is not returned: a
// silently skewed metric is worse than a loud failure).
func NewEmbedding(g *graph.Graph, prev *Embedding, cfg Config, span *obs.Span) (*Embedding, error) {
	if !cfg.reuses(prev, g) {
		prev = nil
	}
	b := solver.Build{Span: span}
	// Solver reuse and the Woodbury correction both index state sized to
	// the previous snapshot, so they need an unchanged vertex set; a
	// grown snapshot warm-starts on a cold solver. The diff is taken
	// here once per push and shared by the Woodbury decision and the
	// solver's reuse path.
	if prev != nil && prev.n == g.N() {
		diff, err := graph.DiffSupport(prev.g, g)
		if err != nil {
			return nil, fmt.Errorf("commute: diff against the previous snapshot: %w", err)
		}
		b = solver.Build{Prev: prev.lap, PrevG: prev.g, Diff: diff, Span: span}
	}
	n, k := g.N(), cfg.k()
	emb := &Embedding{
		n:      n,
		k:      k,
		volume: g.Volume(),
		z:      make([]float64, n*k),
		g:      g,
		lap:    solver.New(g, cfg.Solver, b),
		key:    cfg.key(),
	}
	emb.stats = BuildStats{Rows: k, PrecondReused: emb.lap.ReusedPrecond(), Mode: "cold"}
	sameComp := false
	if prev != nil {
		emb.stats.Warm = true
		emb.stats.Mode = "warm"
		sameComp = sameComponents(emb.lap, prev.lap)
		if edits := len(b.Diff); cfg.IncrementalUpdates && prev.y != nil && sameComp &&
			edits > 0 && edits <= cfg.incrementalMaxEdits() {
			ok, err := emb.correct(prev, b.Diff, cfg, span)
			if err != nil {
				return nil, err
			}
			if ok {
				return emb, nil
			}
		}
	}
	if err := emb.solve(prev, sameComp, cfg, span); err != nil {
		return nil, err
	}
	return emb, nil
}

// embedRowSeed derives projection row `row`'s random stream, so the
// embedding is a pure function of (graph, K, Seed) — identical for any
// Workers value.
func embedRowSeed(seed int64, row int) int64 {
	const golden = 0x9E3779B97F4A7C15
	return seed ^ int64(uint64(row+1)*golden)
}

// projectionRHS writes y_row = (Q W^{1/2} B)ᵀ for projection row `row`
// — each edge contributes ±√(w)/√k to its endpoints with opposite
// signs — into column `col` of the row-major n×stride block y (pass
// stride=1, col=0 for a single dense vector).
func projectionRHS(y []float64, stride, col, row int, edges []graph.Edge, cfg Config, scale float64) {
	if cfg.SharedProjections {
		rs := embedRowSeed(cfg.Seed, row)
		for _, e := range edges {
			q := edgeSign(rs, e.I, e.J) * scale * math.Sqrt(e.W)
			y[e.I*stride+col] += q
			y[e.J*stride+col] -= q
		}
		return
	}
	rng := xrand.New(embedRowSeed(cfg.Seed, row))
	for _, e := range edges {
		q := rng.Rademacher() * scale * math.Sqrt(e.W)
		y[e.I*stride+col] += q
		y[e.J*stride+col] -= q
	}
}

// solve performs the k Laplacian solves of a cold or warm build as one
// blocked multi-RHS PCG call: the embedding's row-major z storage
// (vertex i's vector at z[i*k:(i+1)*k]) is exactly the solver's block
// layout, so the right-hand sides are assembled in place, prev's z
// doubles as the warm-start block with a single copy, and no per-row
// gather/scatter remains. Workers shards the per-iteration SpMM row
// ranges; the result is bit-identical for every value, and matches k
// independent width-1 solves bit-for-bit (the per-row reference in
// block_test.go). prev nil builds cold; sameComp reports whether emb's
// solver carries prev's component labelling.
func (emb *Embedding) solve(prev *Embedding, sameComp bool, cfg Config, span *obs.Span) error {
	n, k := emb.n, emb.k
	edges := emb.g.Edges()
	scale := 1 / math.Sqrt(float64(k))

	proj := span.StartChild("projection")
	y := make([]float64, n*k)
	for row := 0; row < k; row++ {
		projectionRHS(y, k, row, row, edges, cfg, scale)
	}
	proj.SetInt("k", int64(k))
	proj.SetInt("edges", int64(len(edges)))
	proj.SetBool("shared", cfg.SharedProjections)
	proj.End()

	if prev != nil {
		// Warm start every column from the previous snapshot's
		// solution — prev.z already is the n×k guess block. If the
		// component structure changed (a bridge cut or re-joined), the
		// guess is centered for the old labelling, and — because such
		// edits can leave it an exact solution up to per-component
		// constants — the converged-guess early exit would hand those
		// stale means straight back; re-center it first. On unchanged
		// structure the block is untouched, preserving the bit-identical
		// warm-rebuild contract. On a grown vertex set the row-major
		// copy fills exactly the retained vertices' rows (new rows stay
		// zero) and sameComponents reports false on the length mismatch,
		// so the extended guess block is always re-centered.
		copy(emb.z, prev.z)
		if !sameComp {
			emb.lap.ProjectBlock(emb.z, k)
		}
	}
	stats, err := emb.lap.SolveBlock(emb.z, y, k, solver.Solve{Warm: prev != nil, Workers: cfg.workers(), Span: span})
	emb.countSolve(stats)
	if err != nil {
		return fmt.Errorf("commute: embedding block solve: %w", err)
	}
	if cfg.retainRHS() {
		emb.y = y
		emb.certify(stats)
	}
	return nil
}

// countSolve adds a blocked solve's per-column iterations to the build
// stats; its widest column is the solve's traversal count.
func (emb *Embedding) countSolve(stats []solver.Stats) {
	for _, st := range stats {
		emb.stats.PCGIterations += st.Iterations
		if st.Iterations > emb.stats.BlockIterations {
			emb.stats.BlockIterations = st.Iterations
		}
	}
}

// certify resets the per-column residual certificates to the values a
// solve of the full block measured.
func (emb *Embedding) certify(stats []solver.Stats) {
	emb.resBound = make([]float64, emb.k)
	emb.normB = make([]float64, emb.k)
	for c, st := range stats {
		emb.resBound[c] = st.Residual * st.NormB
		emb.normB[c] = st.NormB
	}
}

// sameComponents reports whether two solvers carry the identical
// component labelling (both come from the same deterministic DFS, so
// equal structure means equal labels).
func sameComponents(a, b *solver.Laplacian) bool {
	ca, na := a.Components()
	cb, nb := b.Components()
	return na == nb && slices.Equal(ca, cb)
}

// edgeSign derives a deterministic Rademacher ±1 for one (row, edge)
// pair by hashing rather than by drawing from a sequential stream, so
// an edge's projection coefficient does not depend on which other
// edges exist (splitmix64 finalizer; rowSeed is already well mixed).
// This positional independence is the "common random numbers" property
// SharedProjections promises.
func edgeSign(rowSeed int64, i, j int) float64 {
	x := uint64(rowSeed) ^ (uint64(uint32(i))<<32 | uint64(uint32(j)))
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x>>63 == 0 {
		return 1
	}
	return -1
}

// N implements Oracle.
func (e *Embedding) N() int { return e.n }

// K returns the embedding dimension.
func (e *Embedding) K() int { return e.k }

// Vector returns vertex i's embedding vector. The slice aliases
// internal storage and must not be modified.
func (e *Embedding) Vector(i int) []float64 {
	return e.z[i*e.k : (i+1)*e.k]
}

// Distance implements Oracle: c(i,j) ≈ V_G ‖z_i − z_j‖². Because the
// solver returns minimum-norm (per-component mean-centered) solutions,
// cross-component distances approximate the exact oracle's block
// pseudoinverse values.
func (e *Embedding) Distance(i, j int) float64 {
	if i == j {
		return 0
	}
	return e.volume * sparse.SquaredDistance(e.Vector(i), e.Vector(j))
}

// New returns the oracle the paper's experimental setup would pick for
// g: exact when UseExact(g.N(), exactCutoff) — O(n³) is trivial there
// (the Enron case), and rebuilding is cheap enough that incremental
// reuse would buy nothing — otherwise NewEmbedding, reusing prev when it
// is a compatible embedding. The exact regime emits a single "pinv"
// span under span, since the dense pseudoinverse has no stages worth
// splitting.
func New(g *graph.Graph, prev Oracle, cfg Config, exactCutoff int, span *obs.Span) (Oracle, error) {
	if UseExact(g.N(), exactCutoff) {
		sp := span.StartChild("pinv")
		e := NewExact(g)
		sp.SetInt("n", int64(g.N()))
		sp.End()
		return e, nil
	}
	prevEmb, _ := prev.(*Embedding)
	emb, err := NewEmbedding(g, prevEmb, cfg, span)
	if err != nil {
		return nil, err
	}
	return emb, nil
}

// UseExact reports whether New picks the exact oracle for an n-vertex
// graph: n ≤ exactCutoff, where exactCutoff ≤ 0 selects the default of
// 400 vertices.
func UseExact(n, exactCutoff int) bool {
	if exactCutoff <= 0 {
		exactCutoff = 400
	}
	return n <= exactCutoff
}
