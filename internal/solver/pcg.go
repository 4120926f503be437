// Package solver provides fast solvers for graph-Laplacian linear
// systems L x = b. The paper relies on the Spielman–Teng near-linear
// SDD solver (via Khoa & Chawla's commute-time embedding); this package
// is our from-scratch, stdlib-only substitute: preconditioned conjugate
// gradient with a density-aware choice between a max-weight
// spanning-tree preconditioner (sparse, tree-like graphs) and a Jacobi
// diagonal (dense similarity graphs), plus the null-space projection
// that makes the singular Laplacian system well posed.
package solver

import (
	"errors"
	"fmt"
	"math"

	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
	"dyngraph/internal/sparse"
)

// Precond selects the PCG preconditioner.
type Precond int

const (
	// PrecondAuto (the default) picks by graph density: the spanning
	// forest for sparse, tree-like graphs (average degree ≤ 4 — the
	// m = O(n) regime of the paper's scalability study, where it beats
	// Jacobi by orders of magnitude) and the Jacobi diagonal for
	// denser graphs (similarity graphs, expanders — where a tree is a
	// poor spectral sketch and each tree solve is wasted O(n) work).
	// The crossover was measured on this repository's own workloads;
	// see BenchmarkPCGPreconditionerAblation.
	PrecondAuto Precond = iota
	// PrecondTree uses the exact pseudoinverse of a max-weight
	// spanning forest of the graph.
	PrecondTree
	// PrecondJacobi uses the inverse degree diagonal.
	PrecondJacobi
	// PrecondNone runs plain CG.
	PrecondNone
)

// String implements fmt.Stringer.
func (p Precond) String() string {
	switch p {
	case PrecondAuto:
		return "auto"
	case PrecondTree:
		return "tree"
	case PrecondJacobi:
		return "jacobi"
	case PrecondNone:
		return "none"
	default:
		return fmt.Sprintf("Precond(%d)", int(p))
	}
}

// autoDegreeCutoff is the average-degree boundary between the tree and
// Jacobi preconditioners under PrecondAuto.
const autoDegreeCutoff = 4

// Options configures a Laplacian solver.
type Options struct {
	// Tol is the relative residual target ‖b−Lx‖₂ ≤ Tol·‖b‖₂.
	// Zero means the default 1e-8.
	Tol float64
	// MaxIter caps PCG iterations. Zero means 10·n + 100.
	MaxIter int
	// Precond selects the preconditioner (default PrecondAuto).
	Precond Precond
}

func (o Options) tol() float64 {
	if o.Tol <= 0 {
		return 1e-8
	}
	return o.Tol
}

// Tolerance is the effective relative residual target: Tol, or the
// default when Tol is unset. Exported so callers carrying residual
// bounds across incremental updates test against the same number the
// solver itself enforces.
func (o Options) Tolerance() float64 { return o.tol() }

func (o Options) maxIter(n int) int {
	if o.MaxIter <= 0 {
		return 10*n + 100
	}
	return o.MaxIter
}

// Stats reports the work done by a solve.
type Stats struct {
	Iterations int
	Residual   float64 // final relative residual
	// NormB is ‖P b‖₂ — the denominator the relative residual is
	// measured against. Residual·NormB is the absolute residual, which
	// the incremental embedding path carries across pushes to decide
	// when a corrected block provably still meets tolerance.
	NormB float64
}

// ErrNoConvergence is returned when PCG exhausts MaxIter without
// reaching the residual target. The best iterate found is still
// returned alongside the error.
var ErrNoConvergence = errors.New("solver: PCG did not converge")

// Laplacian is a reusable solver for systems in one graph's Laplacian.
// Building it once amortizes preconditioner setup across the k solves
// performed by the commute-time embedding. Its options are fixed at
// New; per-call parameters travel in Solve. It is not safe for
// concurrent SolveBlock calls: solves reuse internal scratch buffers.
type Laplacian struct {
	n    int
	l    *sparse.CSR
	comp []int // graph component per vertex
	size []int // component sizes

	precond   Precond
	invDiag   []float64     // Jacobi
	tree      *spanningTree // Tree
	reused    bool          // preconditioner carried over from a previous snapshot
	reuseKind string        // "" (cold), "shared" or "patched" — the reuse path taken

	opt Options

	// scratch buffers reused across single-vector solves
	r, z, p, q, s1 []float64
	csum           []float64 // per-component sums for project
	tsum           []float64 // per-component means for the tree solve

	// blk is the lazily sized SolveBlock iteration state (see block.go).
	blk *blockScratch
}

// resolvePrecond applies the PrecondAuto density rule for g.
func resolvePrecond(g *graph.Graph, opt Options) Precond {
	precond := opt.Precond
	if precond == PrecondAuto {
		if n := g.N(); n > 0 && 2*float64(g.NumEdges())/float64(n) <= autoDegreeCutoff {
			precond = PrecondTree
		} else {
			precond = PrecondJacobi
		}
	}
	return precond
}

// Build carries what New may reuse from the previous snapshot's solver
// and where it reports the setup. The zero value builds cold and
// untraced.
type Build struct {
	// Prev is the previous snapshot's solver, whose setup New shares or
	// patches where sound; nil builds cold. Prev hands its blocked-solve
	// scratch over to the new solver (adoptBlockScratch; it re-allocates
	// lazily should it solve again) and is otherwise unmodified, as is
	// PrevG.
	Prev *Laplacian
	// PrevG is the graph Prev was built for.
	PrevG *graph.Graph
	// Diff is graph.DiffSupport(PrevG, g), required whenever Prev is
	// set: the streaming caller already diffed the snapshots to pick its
	// build strategy, so the edit support is walked once per push. Nil
	// means the graphs are identical (DiffSupport's result for them).
	Diff []graph.Key
	// Span is the parent of the "precond" span, whose "mode" attribute
	// records the reuse path taken; nil disables it.
	Span *obs.Span
}

// New prepares a solver for the Laplacian of g, reusing the setup of
// b.Prev (built for b.PrevG, same vertex set) wherever that is sound.
// Reuse rules:
//
//   - If no edge weight changed, the whole setup (matrix, component
//     labelling, preconditioner) is shared.
//   - Pure reweights (every edited pair carries an edge in both
//     graphs): the support — and with it the component structure, the
//     null-space projection and the Laplacian's CSR sparsity pattern —
//     is untouched, so the matrix is patched value-by-value on a
//     shared-structure clone (no COO assembly, no sort, no DFS) and
//     the preconditioner is updated in place: the Jacobi diagonal at
//     the edited endpoints, the spanning forest's weight array for
//     forest edges.
//   - Tree preconditioner under inserts/deletes: the previous
//     max-weight spanning forest is kept — with patched edge weights —
//     as long as no forest edge was deleted and no new edge bridges
//     two forest components. Both conditions together also pin the
//     component structure, so the null-space projection carries over.
//     The patched forest may no longer be the maximum-weight one,
//     which degrades convergence gracefully (a few extra PCG
//     iterations) but never correctness: any spanning forest of the
//     graph's components is a valid SPD preconditioner on range(L).
//
// Anything else — no Prev, a different vertex count or resolved
// preconditioner — builds cold. ReusedPrecond reports which path was
// taken.
func New(g *graph.Graph, opt Options, b Build) *Laplacian {
	sp := b.Span.StartChild(PrecondSpanName)
	s := build(g, opt, b)
	annotatePrecond(sp, s)
	sp.End()
	return s
}

// build is New without the span.
func build(g *graph.Graph, opt Options, b Build) *Laplacian {
	prev := b.Prev
	precond := resolvePrecond(g, opt)
	if prev == nil || b.PrevG == nil || prev.n != g.N() || precond != prev.precond {
		return buildCold(g, opt, precond, nil)
	}
	diff := b.Diff
	if len(diff) == 0 {
		s := &Laplacian{
			n:         prev.n,
			l:         prev.l,
			comp:      prev.comp,
			size:      prev.size,
			precond:   precond,
			invDiag:   prev.invDiag,
			tree:      prev.tree,
			reused:    true,
			reuseKind: "shared",
			opt:       opt,
		}
		s.allocScratch()
		s.adoptBlockScratch(prev)
		return s
	}
	if supportUnchanged(g, b.PrevG, diff) {
		if s := prev.patchedVals(g, diff, opt); s != nil {
			return s
		}
	}
	if precond != PrecondTree {
		return buildCold(g, opt, precond, nil)
	}
	tree, ok := prev.tree.patched(g, diff)
	if !ok {
		return buildCold(g, opt, precond, nil)
	}
	s := &Laplacian{
		n:         prev.n,
		l:         g.Laplacian(),
		comp:      prev.comp, // component structure unchanged by the patch rules
		size:      prev.size,
		precond:   precond,
		tree:      tree,
		reused:    true,
		reuseKind: "patched",
		opt:       opt,
	}
	s.allocScratch()
	s.adoptBlockScratch(prev)
	return s
}

// Restore rebuilds the solver a persisted embedding was solved on: the
// cold build of g, except that a tree preconditioner adopts the forest
// f (saved by Laplacian.Forest) instead of running Kruskal. Everything
// else a solver holds — the CSR Laplacian, the component labels, the
// Jacobi diagonal, the forest's edge weights — is a pure function of g,
// and the reuse paths of New keep it so (patched values are written,
// never accumulated), so the result solves bit-identically to the
// solver f was taken from. f must be given exactly when g resolves to
// the tree preconditioner, and must be a spanning forest of g; anything
// else is an error.
func Restore(g *graph.Graph, opt Options, f *Forest) (*Laplacian, error) {
	precond := resolvePrecond(g, opt)
	if (f != nil) != (precond == PrecondTree) {
		return nil, fmt.Errorf("solver: restore: forest given = %v for the %s preconditioner", f != nil, precond)
	}
	var tree *spanningTree
	if f != nil {
		var err error
		if tree, err = f.tree(g); err != nil {
			return nil, err
		}
	}
	s := buildCold(g, opt, precond, tree)
	if tree != nil && len(tree.compSize) != len(s.size) {
		return nil, fmt.Errorf("solver: restore: forest has %d trees for %d components", len(tree.compSize), len(s.size))
	}
	return s, nil
}

// buildCold builds the solver for g from scratch with the resolved
// preconditioner. A tree preconditioner uses tree when it is non-nil
// (Restore) and Kruskal's forest otherwise.
func buildCold(g *graph.Graph, opt Options, precond Precond, tree *spanningTree) *Laplacian {
	n := g.N()
	comp, ncomp := g.Components()
	size := make([]int, ncomp)
	for _, c := range comp {
		size[c]++
	}
	s := &Laplacian{
		n:       n,
		l:       g.Laplacian(),
		comp:    comp,
		size:    size,
		precond: precond,
		opt:     opt,
	}
	switch precond {
	case PrecondJacobi:
		s.invDiag = make([]float64, n)
		for i, d := range g.Degrees() {
			if d > 0 {
				s.invDiag[i] = 1 / d
			}
		}
	case PrecondTree:
		if tree == nil {
			tree = maxWeightSpanningTree(g)
		}
		s.tree = tree
	}
	s.allocScratch()
	return s
}

// supportUnchanged reports whether every differing pair carries a
// non-zero edge in both graphs — a pure-reweight edit, which leaves the
// sparsity pattern and the component structure untouched.
func supportUnchanged(g, prevG *graph.Graph, diff []graph.Key) bool {
	for _, k := range diff {
		if g.Weight(k.I, k.J) == 0 || prevG.Weight(k.I, k.J) == 0 {
			return false
		}
	}
	return true
}

// patchedVals builds the solver for g by patching prev's Laplacian
// values in place on a shared-structure CSR clone — the pure-reweight
// fast path. The component labelling is shared outright (reweights
// cannot change it) and the preconditioner is updated at the edited
// entries only. Patched entries are written from g's weights and
// degrees directly — never accumulated as ±Δw, which rounds twice —
// so the patched matrix is bit-identical to a fresh assembly and a
// solve on it follows the exact trajectory a cold build would. (The
// batch-vs-streaming equality tests lean on this: near-tied scores
// keep their sort order only when the two paths solve bit-equal
// systems.) Returns nil when the sparsity pattern surprises (a diff
// entry without a stored slot), sending the caller to a cold build.
func (prev *Laplacian) patchedVals(g *graph.Graph, diff []graph.Key, opt Options) *Laplacian {
	l := prev.l.CloneVals()
	deg := g.Degrees()
	for _, k := range diff {
		w := g.Weight(k.I, k.J)
		ij, ji := l.FindEntry(k.I, k.J), l.FindEntry(k.J, k.I)
		ii, jj := l.FindEntry(k.I, k.I), l.FindEntry(k.J, k.J)
		if ij < 0 || ji < 0 || ii < 0 || jj < 0 {
			return nil
		}
		l.Val[ij] = -w // off-diagonal is −w
		l.Val[ji] = -w
		l.Val[ii] = deg[k.I] // diagonal is the weighted degree
		l.Val[jj] = deg[k.J]
	}
	s := &Laplacian{
		n:         prev.n,
		l:         l,
		comp:      prev.comp,
		size:      prev.size,
		precond:   prev.precond,
		reused:    true,
		reuseKind: "patched",
		opt:       opt,
	}
	switch prev.precond {
	case PrecondJacobi:
		inv := append([]float64(nil), prev.invDiag...)
		for _, k := range diff {
			for _, v := range [2]int{k.I, k.J} {
				if deg[v] > 0 {
					inv[v] = 1 / deg[v]
				} else {
					inv[v] = 0
				}
			}
		}
		s.invDiag = inv
	case PrecondTree:
		tree, ok := prev.tree.patched(g, diff)
		if !ok {
			return nil
		}
		s.tree = tree
	}
	s.allocScratch()
	s.adoptBlockScratch(prev)
	return s
}

func (s *Laplacian) allocScratch() {
	s.blk = nil // block scratch is per-solver, never shared
	s.r = make([]float64, s.n)
	s.z = make([]float64, s.n)
	s.p = make([]float64, s.n)
	s.q = make([]float64, s.n)
	s.s1 = make([]float64, s.n)
	s.csum = make([]float64, len(s.size))
	if s.tree != nil {
		s.tsum = make([]float64, len(s.tree.compSize))
	}
}

// N returns the system dimension.
func (s *Laplacian) N() int { return s.n }

// ReusedPrecond reports whether this solver's preconditioner setup was
// carried over (shared or patched) from Build.Prev instead of being
// built cold.
func (s *Laplacian) ReusedPrecond() bool { return s.reused }

// project removes each component's mean from x in place, mapping it
// into the range of L (the orthogonal complement of the null space).
func (s *Laplacian) project(x []float64) {
	sums := s.csum
	for c := range sums {
		sums[c] = 0
	}
	for v, c := range s.comp {
		sums[c] += x[v]
	}
	for c := range sums {
		sums[c] /= float64(s.size[c])
	}
	for v, c := range s.comp {
		x[v] -= sums[c]
	}
}

// applyPrecond computes z = M⁻¹ r.
func (s *Laplacian) applyPrecond(z, r []float64) {
	switch s.precond {
	case PrecondTree:
		s.tree.solve(z, r, s.s1, s.tsum)
	case PrecondJacobi:
		for i, v := range r {
			z[i] = v * s.invDiag[i]
		}
	default:
		copy(z, r)
	}
}

// solve is the single-RHS PCG loop behind SolveBlock at width 1: the
// minimum-norm solution of L x = b, with b first projected onto the
// range of L (per-component mean removal, as the paper's commute-time
// right-hand sides require). When warm is true, x's incoming contents
// are the initial guess; otherwise x is zeroed first. Either way the
// converged minimum-norm (per-component mean-centered) solution is left
// in x, to relative residual tol.
func (s *Laplacian) solve(x, b []float64, warm bool, tol float64) (Stats, error) {
	if len(b) != s.n || len(x) != s.n {
		return Stats{}, fmt.Errorf("solver: Solve dimension mismatch: len(x)=%d, len(b)=%d, n=%d", len(x), len(b), s.n)
	}
	copy(s.r, b)
	s.project(s.r) // r = P b  (before subtracting L x0)
	normB := sparse.Norm2(s.r)
	if normB == 0 {
		sparse.Zero(x) // the minimum-norm solution of L x = 0
		return Stats{}, nil
	}
	maxIter := s.opt.maxIter(s.n)

	if warm {
		// r = P b − L x0. L x0 is already in range(L), but project r
		// anyway to guard against floating-point drift. A guess that is
		// already within tolerance is returned bit-for-bit unchanged —
		// the property that makes rebuilding an embedding of an
		// unchanged snapshot free and exactly reproducible. (L is blind
		// to per-component means, so a caller warm-starting from an
		// uncentered guess gets that guess's means back on this path;
		// guesses taken from a previous Solve are already centered.)
		s.l.MulVec(s.q, x)
		sparse.Axpy(-1, s.q, s.r)
		s.project(s.r)
		if res := sparse.Norm2(s.r) / normB; res <= tol {
			return Stats{Residual: res, NormB: normB}, nil
		}
		// Center the guess now so every iterate — and therefore the
		// returned solution — is the minimum-norm representative.
		// Shifting x by component constants does not change r.
		s.project(x)
	} else {
		sparse.Zero(x)
	}

	s.applyPrecond(s.z, s.r)
	s.project(s.z)
	copy(s.p, s.z)
	rz := sparse.Dot(s.r, s.z)

	st := Stats{NormB: normB}
	for it := 1; it <= maxIter; it++ {
		s.l.MulVec(s.q, s.p)
		pq := sparse.Dot(s.p, s.q)
		if pq <= 0 || math.IsNaN(pq) {
			// Numerical breakdown: direction fell into the null space.
			st.Residual = sparse.Norm2(s.r) / normB
			return st, ErrNoConvergence
		}
		alpha := rz / pq
		sparse.Axpy(alpha, s.p, x)
		sparse.Axpy(-alpha, s.q, s.r)
		s.project(s.r) // guard against drift back into the null space

		st.Iterations = it
		res := sparse.Norm2(s.r) / normB
		st.Residual = res
		if res <= tol {
			s.project(x) // return the minimum-norm representative
			return st, nil
		}
		s.applyPrecond(s.z, s.r)
		s.project(s.z)
		rzNew := sparse.Dot(s.r, s.z)
		beta := rzNew / rz
		rz = rzNew
		for i := range s.p {
			s.p[i] = s.z[i] + beta*s.p[i]
		}
	}
	s.project(x)
	return st, ErrNoConvergence
}
