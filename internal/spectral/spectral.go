// Package spectral provides sparse symmetric eigensolvers: Lanczos
// with full reorthogonalization for the largest eigenpairs (the
// adjacency spectrum ACT relies on) and preconditioned inverse
// iteration for the smallest non-trivial Laplacian eigenpairs (the
// spectral embedding behind Figure 2, usable far beyond the dense
// eigensolver's O(n³) reach).
//
// Both solvers work on the CSR matrices produced by internal/graph and
// reuse the Laplacian solver from internal/solver, so the whole stack
// stays stdlib-only.
package spectral

import (
	"errors"
	"fmt"
	"math"

	"dyngraph/internal/dense"
	"dyngraph/internal/graph"
	"dyngraph/internal/solver"
	"dyngraph/internal/sparse"
	"dyngraph/internal/xrand"
)

// Options configures the iterative eigensolvers.
type Options struct {
	// MaxIter caps Lanczos steps / inverse-iteration sweeps
	// (default 300).
	MaxIter int
	// Tol is the convergence tolerance on eigenvector updates
	// (default 1e-10).
	Tol float64
	// Seed drives the random start vectors.
	Seed int64
}

func (o Options) maxIter() int {
	if o.MaxIter <= 0 {
		return 300
	}
	return o.MaxIter
}

func (o Options) tol() float64 {
	if o.Tol <= 0 {
		return 1e-10
	}
	return o.Tol
}

// ErrNoConvergence is returned when an eigensolver exhausts its
// iteration budget.
var ErrNoConvergence = errors.New("spectral: eigensolver did not converge")

// operator is a symmetric linear map, the abstraction Lanczos runs on:
// an explicit sparse matrix or an implicitly applied (pseudo)inverse.
type operator interface {
	apply(dst, src []float64)
	dim() int
}

type matrixOp struct{ a *sparse.CSR }

func (m matrixOp) apply(dst, src []float64) { m.a.MulVec(dst, src) }
func (m matrixOp) dim() int                 { return m.a.Rows }

// pinvOp applies the Laplacian pseudoinverse via a PCG solve. Its top
// eigenpairs are the reciprocals of L's smallest non-trivial ones.
type pinvOp struct {
	lap *solver.Laplacian
	err error
}

func (p *pinvOp) apply(dst, src []float64) {
	if _, err := p.lap.SolveBlock(dst, src, 1, solver.Solve{}); err != nil && p.err == nil {
		p.err = err
	}
}
func (p *pinvOp) dim() int { return p.lap.N() }

// Largest computes the k algebraically largest eigenpairs of the
// symmetric matrix a using Lanczos with full reorthogonalization.
// Eigenvalues are returned descending; vecs[j] is the eigenvector of
// vals[j]. k must be positive and at most a.Rows.
func Largest(a *sparse.CSR, k int, opt Options) (vals []float64, vecs [][]float64, err error) {
	if a.Cols != a.Rows {
		return nil, nil, fmt.Errorf("spectral: Largest needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	return lanczos(matrixOp{a: a}, k, opt, nil)
}

// lanczos runs Lanczos with full reorthogonalization on op, optionally
// deflating a fixed subspace (each start/iterate is kept orthogonal to
// the given vectors).
func lanczos(op operator, k int, opt Options, deflateAgainst [][]float64) (vals []float64, vecs [][]float64, err error) {
	n := op.dim()
	if k <= 0 || k > n {
		return nil, nil, fmt.Errorf("spectral: k = %d out of range [1, %d]", k, n)
	}
	maxSteps := opt.maxIter()
	if maxSteps > n {
		maxSteps = n
	}
	if maxSteps < k {
		maxSteps = k
	}

	rng := xrand.New(opt.Seed)
	// Lanczos basis (rows are basis vectors).
	basis := make([][]float64, 0, maxSteps)
	alpha := make([]float64, 0, maxSteps)
	beta := make([]float64, 0, maxSteps)

	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Normal(0, 1)
	}
	for _, u := range deflateAgainst {
		sparse.Axpy(-sparse.Dot(v, u), u, v)
	}
	normalizeVec(v)
	w := make([]float64, n)

	for step := 0; step < maxSteps; step++ {
		basis = append(basis, append([]float64(nil), v...))
		op.apply(w, v)
		al := sparse.Dot(v, w)
		alpha = append(alpha, al)
		// w ← w − α v − β v_prev, then full reorthogonalization
		// against every basis vector and the deflated subspace (two
		// passes are enough in practice).
		for pass := 0; pass < 2; pass++ {
			for _, b := range basis {
				sparse.Axpy(-sparse.Dot(w, b), b, w)
			}
			for _, u := range deflateAgainst {
				sparse.Axpy(-sparse.Dot(w, u), u, w)
			}
		}
		bt := sparse.Norm2(w)
		if bt < 1e-13 {
			break // invariant subspace found
		}
		beta = append(beta, bt)
		for i := range v {
			v[i] = w[i] / bt
		}
	}

	m := len(basis)
	if m < k {
		return nil, nil, fmt.Errorf("spectral: Krylov space collapsed at dimension %d < k = %d", m, k)
	}
	// Solve the m×m tridiagonal eigenproblem densely (m is small).
	t := dense.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		t.Set(i, i, alpha[i])
		if i+1 < m {
			t.Set(i, i+1, beta[i])
			t.Set(i+1, i, beta[i])
		}
	}
	tvals, tvecs := dense.EigenSym(t)

	vals = make([]float64, k)
	vecs = make([][]float64, k)
	for j := 0; j < k; j++ {
		col := m - 1 - j // ascending order → take from the top
		vals[j] = tvals[col]
		u := make([]float64, n)
		for s := 0; s < m; s++ {
			sparse.Axpy(tvecs.At(s, col), basis[s], u)
		}
		normalizeVec(u)
		vecs[j] = u
	}
	return vals, vecs, nil
}

// SmallestLaplacian computes the k smallest *non-trivial* Laplacian
// eigenpairs of a connected graph (skipping the constant null vector)
// by running Lanczos on the Laplacian pseudoinverse — each operator
// application is one PCG solve, and L⁺'s dominant eigenpairs are the
// reciprocals of L's smallest non-trivial ones, so convergence is fast
// even when the small eigenvalues cluster. vals ascend; vecs[0] is the
// Fiedler vector. It returns an error for disconnected graphs, whose
// extra null vectors make "non-trivial" ambiguous.
func SmallestLaplacian(g *graph.Graph, k int, opt Options) (vals []float64, vecs [][]float64, err error) {
	n := g.N()
	if k <= 0 || k >= n {
		return nil, nil, fmt.Errorf("spectral: k = %d out of range [1, %d)", k, n-1)
	}
	if !g.IsConnected() {
		return nil, nil, errors.New("spectral: SmallestLaplacian requires a connected graph")
	}
	op := &pinvOp{lap: solver.New(g, solver.Options{Tol: 1e-12}, solver.Build{})}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1 / math.Sqrt(float64(n))
	}
	muVals, muVecs, err := lanczos(op, k, opt, [][]float64{ones})
	if err != nil {
		return nil, nil, err
	}
	if op.err != nil {
		return nil, nil, fmt.Errorf("spectral: pseudoinverse solve: %w", op.err)
	}
	// Convert: λ_j = 1/μ_j, keeping ascending λ order (μ descending).
	l := g.Laplacian()
	tmp := make([]float64, n)
	vals = make([]float64, k)
	vecs = muVecs
	for j := 0; j < k; j++ {
		if muVals[j] <= 0 {
			return nil, nil, ErrNoConvergence
		}
		// Rayleigh quotient against L itself is more accurate than
		// 1/μ once solver tolerance enters.
		l.MulVec(tmp, vecs[j])
		vals[j] = sparse.Dot(vecs[j], tmp)
	}
	return vals, vecs, nil
}

// Eigenmap2D returns the 2-D spectral embedding of a connected graph:
// coordinate i is (f_i, g_i) with f the Fiedler vector and g the third
// Laplacian eigenvector — the construction behind the paper's Figure 2,
// computed sparsely.
func Eigenmap2D(g *graph.Graph, opt Options) ([][2]float64, error) {
	_, vecs, err := SmallestLaplacian(g, 2, opt)
	if err != nil {
		return nil, err
	}
	out := make([][2]float64, g.N())
	for i := range out {
		out[i] = [2]float64{vecs[0][i], vecs[1][i]}
	}
	return out, nil
}

func normalizeVec(v []float64) {
	n := sparse.Norm2(v)
	if n == 0 {
		return
	}
	sparse.Scale(1/n, v)
}
