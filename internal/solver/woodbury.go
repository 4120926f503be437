package solver

import (
	"fmt"
	"math"
)

// Low-rank (Woodbury / Sherman–Morrison) corrections for Laplacian
// solves. Editing m edges of a graph changes its Laplacian by the
// rank-m symmetric update
//
//	L' = L + B D Bᵀ,   B = [b_e]  (n×m incidence columns, b_e = e_I − e_J),
//	                   D = diag(Δw_e)  (the weight changes),
//
// and — as long as the component structure (and with it the null space
// of L) is unchanged — the pseudoinverse obeys the Woodbury identity on
// range(L):
//
//	L'⁺ = L⁺ − U C Uᵀ,   U = L⁺B,   C = (D⁻¹ + BᵀU)⁻¹.
//
// For a solution block Z of L Z = P Y whose right-hand sides also
// change only on the edited edges (ΔY = B S, the shared-projections
// property of the commute embedding), the corrected block is a pure
// axpy update:
//
//	Z' = L'⁺ (Y + B S) = Z + U · (S − C (BᵀZ + (BᵀU) S)),
//
// i.e. m base solves for the incidence columns (IncidenceSolves) plus
// O(n·m·k) dense work (WoodburyCorrect) — no PCG iterations over the
// k-wide block at all. This is the rank-1/rank-m fast path of Khoa &
// Chawla's incremental commute-time pipeline, generalized to blocks.

// EdgeUpdate describes one edited edge: the weight of the undirected
// edge (I, J) changed by DeltaW = w_new − w_old (negative for weakened
// or deleted edges; DeltaW must be non-zero). The orientation
// convention is +1 at I, −1 at J, matching the commute embedding's
// projection right-hand sides for I < J canonical edges.
type EdgeUpdate struct {
	I, J   int
	DeltaW float64
}

// IncidenceSolves solves L u_e = b_e for every update's incidence
// vector b_e = e_I − e_J and returns the solutions as a row-major n×m
// block (entry (v, e) at u[v*m+e]) — the U = L⁺B factor of the
// Woodbury identity — together with the per-column solve Stats.
//
// Every update's endpoints must lie in the same component of this
// solver's graph (the null-space projection would otherwise silently
// deform b_e); callers gate on component structure before calling. The
// solves reuse this solver's preconditioner and scratch, so an m-edge
// edit costs m narrow solves against an already-built solver — no
// setup at all — and they run at √tol, not tol: the solutions feed a
// correction whose coefficients are O(Δw), and the caller's
// warm-started verification solve on the edited operator enforces the
// final tolerance either way (see WoodburyCorrect).
func (s *Laplacian) IncidenceSolves(updates []EdgeUpdate, workers int) ([]float64, []Stats, error) {
	m := len(updates)
	if m == 0 {
		return nil, nil, fmt.Errorf("solver: IncidenceSolves with no updates")
	}
	b := make([]float64, s.n*m)
	for e, up := range updates {
		if up.I < 0 || up.I >= s.n || up.J < 0 || up.J >= s.n || up.I == up.J {
			return nil, nil, fmt.Errorf("solver: IncidenceSolves bad edge (%d,%d) with n=%d", up.I, up.J, s.n)
		}
		b[up.I*m+e] = 1
		b[up.J*m+e] = -1
	}
	u := make([]float64, s.n*m)
	// The incidence solutions only feed a correction whose coefficients
	// are O(Δw); the caller's verification solve on the new operator
	// enforces the final tolerance either way (polishing when the
	// correction falls short). Half the digits — √tol — suffice here
	// and roughly halve the base-solve iteration count.
	stats, err := s.SolveBlock(u, b, m, Solve{Tol: math.Sqrt(s.opt.tol()), Workers: workers})
	if err != nil {
		return nil, stats, fmt.Errorf("solver: incidence solve: %w", err)
	}
	return u, stats, nil
}

// WoodburyCorrect updates the row-major n×k solution block z of
// L z = P y in place into the solution of L' z' = P (y + ΔY), where
// L' = L + Σ_e Δw_e b_e b_eᵀ over the updates and ΔY = B·S: column c
// of ΔY adds coef[e*k+c] at I_e and subtracts it at J_e (pass an
// all-zero coef when only the operator changed). u is the incidence
// block from IncidenceSolves on the OLD solver.
//
// The correction is algebraically exact up to the base solves'
// residuals; callers wanting a hard tolerance guarantee follow it with
// a warm-started solve on the new operator, which verifies (and, when
// needed, polishes) the corrected block at the cost of one residual
// evaluation per column.
//
// On success it returns the m×k coefficient block W = S − C(BᵀZ+(BᵀU)S)
// that was applied (z' = z + U·W, row-major, entry (e, c) at W[e*k+c]).
// W carries the exact residual propagation of the update: with base
// residuals R = B − L·U, the corrected block's residual against the new
// operator is r' = r + R·W — so a caller tracking per-column absolute
// residual bounds can accumulate Σ_e ‖R[:,e]‖·|W[e,c]| and prove the
// block still meets tolerance without touching the operator at all.
//
// It returns an error — leaving z unmodified — when the m×m capacitance
// matrix D⁻¹ + BᵀU is numerically singular. That is the algebraic
// signature of an edit the identity cannot absorb: deleting a bridge
// (splitting a component) drives 1/Δw + r_e to zero, and near-singular
// capacitances amplify base-solve noise past any tolerance.
func WoodburyCorrect(z []float64, k int, u []float64, updates []EdgeUpdate, coef []float64) ([]float64, error) {
	m := len(updates)
	if m == 0 || k <= 0 {
		return nil, fmt.Errorf("solver: WoodburyCorrect with m=%d, k=%d", m, k)
	}
	if len(z)%k != 0 || len(u) != len(z)/k*m || len(coef) != m*k {
		return nil, fmt.Errorf("solver: WoodburyCorrect dimension mismatch: len(z)=%d, k=%d, len(u)=%d, len(coef)=%d", len(z), k, len(u), len(coef))
	}
	n := len(z) / k

	// M = BᵀU (m×m) and cap = D⁻¹ + M. The singularity scale is taken
	// from the terms cap is built from, not from cap itself: a bridge
	// deletion makes 1/Δw and the effective resistance cancel, and the
	// tiny remainder must read as singular relative to what cancelled.
	bu := make([]float64, m*m)
	capm := make([]float64, m*m)
	var scale float64
	for e, up := range updates {
		for f := 0; f < m; f++ {
			v := u[up.I*m+f] - u[up.J*m+f]
			bu[e*m+f] = v
			if av := math.Abs(v); av > scale {
				scale = av
			}
		}
		if up.DeltaW == 0 {
			return nil, fmt.Errorf("solver: WoodburyCorrect zero-delta update on edge (%d,%d)", up.I, up.J)
		}
		if av := math.Abs(1 / up.DeltaW); av > scale {
			scale = av
		}
		copy(capm[e*m:e*m+m], bu[e*m:e*m+m])
		capm[e*m+e] += 1 / up.DeltaW
	}

	// rhs = BᵀZ + (BᵀU)·S (m×k).
	rhs := make([]float64, m*k)
	for e, up := range updates {
		rr := rhs[e*k : e*k+k]
		zi := z[up.I*k : up.I*k+k]
		zj := z[up.J*k : up.J*k+k]
		for c := 0; c < k; c++ {
			rr[c] = zi[c] - zj[c]
		}
		for f := 0; f < m; f++ {
			mef := bu[e*m+f]
			if mef == 0 {
				continue
			}
			sr := coef[f*k : f*k+k]
			for c := 0; c < k; c++ {
				rr[c] += mef * sr[c]
			}
		}
	}

	// Solve cap · X = rhs in place; W = S − X.
	if err := solveDense(capm, rhs, m, k, scale); err != nil {
		return nil, err
	}
	w := rhs
	for i := range w {
		w[i] = coef[i] - w[i]
	}

	// z += U · W, streamed row-major: one pass over z and u.
	for v := 0; v < n; v++ {
		zr := z[v*k : v*k+k]
		ur := u[v*m : v*m+m]
		for e := 0; e < m; e++ {
			uv := ur[e]
			if uv == 0 {
				continue
			}
			wr := w[e*k : e*k+k]
			for c := range zr {
				zr[c] += uv * wr[c]
			}
		}
	}
	return w, nil
}

// solveDense solves the m×m system A·X = B in place (X overwrites the
// row-major m×k block b; a is destroyed) by Gaussian elimination with
// partial pivoting. A pivot below relPivotTol times scale — the
// magnitude of the terms A was assembled from, so that cancellation to
// a tiny remainder still reads as singular — is reported as an error:
// the capacitance-singularity fallback signal.
func solveDense(a, b []float64, m, k int, scale float64) error {
	for _, v := range a {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	if scale == 0 {
		return fmt.Errorf("solver: singular capacitance matrix (zero)")
	}
	const relPivotTol = 1e-10
	for col := 0; col < m; col++ {
		// Partial pivot.
		piv, pmax := col, math.Abs(a[col*m+col])
		for r := col + 1; r < m; r++ {
			if av := math.Abs(a[r*m+col]); av > pmax {
				piv, pmax = r, av
			}
		}
		if pmax <= relPivotTol*scale || math.IsNaN(pmax) {
			return fmt.Errorf("solver: singular capacitance matrix (pivot %g at column %d)", pmax, col)
		}
		if piv != col {
			for j := col; j < m; j++ {
				a[col*m+j], a[piv*m+j] = a[piv*m+j], a[col*m+j]
			}
			for j := 0; j < k; j++ {
				b[col*k+j], b[piv*k+j] = b[piv*k+j], b[col*k+j]
			}
		}
		inv := 1 / a[col*m+col]
		for r := col + 1; r < m; r++ {
			f := a[r*m+col] * inv
			if f == 0 {
				continue
			}
			for j := col; j < m; j++ {
				a[r*m+j] -= f * a[col*m+j]
			}
			for j := 0; j < k; j++ {
				b[r*k+j] -= f * b[col*k+j]
			}
		}
	}
	// Back substitution.
	for col := m - 1; col >= 0; col-- {
		inv := 1 / a[col*m+col]
		for j := 0; j < k; j++ {
			s := b[col*k+j]
			for r := col + 1; r < m; r++ {
				s -= a[col*m+r] * b[r*k+j]
			}
			b[col*k+j] = s * inv
		}
	}
	return nil
}

// Components returns the cached per-vertex component labelling and the
// component count of this solver's graph. The slice aliases internal
// storage and must not be modified; it lets callers gate low-rank
// updates on component-structure equality without recomputing a DFS on
// the retained side.
func (s *Laplacian) Components() ([]int, int) { return s.comp, len(s.size) }
