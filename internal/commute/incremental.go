package commute

import (
	"fmt"
	"math"

	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
	"dyngraph/internal/solver"
)

// The incremental build path: when consecutive snapshots differ by a
// handful of edges, the embedding block does not need k warm PCG
// solves — the rank-m Woodbury identity corrects the previous block
// directly (solver.WoodburyCorrect), at the cost of one base solve per
// edited edge on the *previous* solver plus O(n·m·k) dense work.
//
// Shared projections make the right-hand sides cooperate: row c's RHS
// changes only on the edited edges, by exactly
//
//	s_{e,c} = sign(c, e)·(√w_new − √w_old)/√k
//
// at the edge's endpoints (±), i.e. ΔY = B·S for the same incidence
// block B that carries the operator update — the precondition of the
// block-corrected identity Z' = Z + U·(S − C(BᵀZ + (BᵀU)·S)).
//
// The corrected block is then handed to a warm-started block solve on
// the new operator as the initial guess. That solve is the safety net
// and the tolerance contract in one move: when the correction is good
// (the common case) every column is within tolerance already and the
// solve returns it bit-for-bit unchanged after a single verification
// pass; when it is not — ill-conditioned capacitance, base-solve noise
// — PCG polishes it. Either way the result meets the solver tolerance
// by construction, which is what lets the warm and incremental paths
// agree at tolerance (the differential tests pin this).
//
// The path refuses (and the caller falls back to plain warm/cold
// builds) when the edit is not low-rank-correctable: too many edited
// edges (each costs a base solve — the edit budget heuristic), a
// changed component structure (the identity needs L and L' to share a
// null space; think bridge deletions), a singular capacitance matrix
// (the same condition caught algebraically), or no retained state.

// correct builds emb by the low-rank correction of prev's block, for a
// diff within the edit budget on an unchanged component structure; emb
// already carries the new snapshot's solver. It reports false when the
// edit is not correctable (a base solve failed or the capacitance is
// singular), sending the caller down the warm path, which overwrites
// emb.z; a non-nil error only for a failed verification solve.
func (emb *Embedding) correct(prev *Embedding, diff []graph.Key, cfg Config, span *obs.Span) (bool, error) {
	g, k := emb.g, emb.k
	scale := 1 / math.Sqrt(float64(k))
	updates := make([]solver.EdgeUpdate, len(diff))
	coef := make([]float64, len(diff)*k)
	for e, key := range diff {
		wNew, wOld := g.Weight(key.I, key.J), prev.g.Weight(key.I, key.J)
		updates[e] = solver.EdgeUpdate{I: key.I, J: key.J, DeltaW: wNew - wOld}
		ds := scale * (math.Sqrt(wNew) - math.Sqrt(wOld))
		for c := 0; c < k; c++ {
			coef[e*k+c] = edgeSign(embedRowSeed(cfg.Seed, c), key.I, key.J) * ds
		}
	}

	sp := span.StartChild("woodbury")
	u, ustats, err := prev.lap.IncidenceSolves(updates, cfg.workers())
	if err != nil {
		// A base solve that cannot converge on the previous operator is
		// a numerical red flag, not a config error: fall back to warm.
		sp.SetString("fallback", "base solve: "+err.Error())
		sp.End()
		return false, nil
	}
	copy(emb.z, prev.z)
	w, err := solver.WoodburyCorrect(emb.z, k, u, updates, coef)
	if err != nil {
		// Singular capacitance: the edit changes the operator in a way
		// the identity cannot absorb (e.g. an effective bridge cut).
		sp.SetString("fallback", err.Error())
		sp.End()
		return false, nil
	}
	for _, st := range ustats {
		emb.stats.PCGIterations += st.Iterations
	}
	sp.SetInt("edits", int64(len(updates)))
	sp.SetInt("base_solves", int64(len(updates)))

	// Patch the retained RHS block: y' = y + B·S.
	emb.y = append([]float64(nil), prev.y...)
	for e, key := range diff {
		for c := 0; c < k; c++ {
			emb.y[key.I*k+c] += coef[e*k+c]
			emb.y[key.J*k+c] -= coef[e*k+c]
		}
	}

	// Residual certificate update. The corrected block's residual
	// against the new operator is exactly r' = r + R·W (R's columns are
	// the base solves' residual vectors, see WoodburyCorrect), so
	//
	//	resBound'[c] = resBound[c] + Σ_e ‖r_e‖·|W_{e,c}|
	//
	// is a proven bound, with ‖r_e‖ = Residual·NormB from the base
	// solve's stats. The RHS norm can only shrink by the perturbation:
	// column c of ΔY = B·S has norm ≤ Σ_e √2·|s_{e,c}| and the
	// null-space projection is non-expansive, so normB'[c] ≥ normB[c] −
	// that sum. While resBound' ≤ tol·normB' holds for every column,
	// the corrected block provably passes the verification solve's
	// converged-guess early exit — the bound dominates the residual the
	// exit would measure — and the exit returns the block bit-for-bit
	// unchanged, so the solve itself (an SpMM plus projections per
	// push) is skipped. The first column to cross the bound triggers a
	// real verification, which resets the certificate to measured
	// values.
	certified := prev.resBound != nil && len(prev.resBound) == k
	if certified {
		emb.resBound = append([]float64(nil), prev.resBound...)
		emb.normB = append([]float64(nil), prev.normB...)
		for e := range updates {
			base := ustats[e].Residual * ustats[e].NormB
			for c := 0; c < k; c++ {
				emb.resBound[c] += base * math.Abs(w[e*k+c])
				emb.normB[c] -= math.Sqrt2 * math.Abs(coef[e*k+c])
			}
		}
		tol := cfg.Solver.Tolerance()
		for c := 0; certified && c < k; c++ {
			certified = emb.normB[c] > 0 && emb.resBound[c] <= tol*emb.normB[c]
		}
	}
	sp.SetBool("verify_skipped", certified)
	sp.End()
	emb.stats.Mode = "incremental"
	emb.stats.BaseSolves = len(updates)
	if certified {
		emb.stats.VerifySkipped = true
		return true, nil
	}

	// Verify-and-polish on the new operator: a good correction is
	// returned unchanged after one residual pass (0 iterations); a
	// noisy one is polished — past the serving tolerance, to tol/4,
	// because the polish target is what the certificate resets to: a
	// verification that stopped just under tol would leave no headroom
	// and force another verification a push later, while the few extra
	// iterations here buy several verification-free pushes. This is
	// also the fallback of last resort — even a terrible correction is
	// just a bad warm guess here.
	stats, err := emb.lap.SolveBlock(emb.z, emb.y, k, solver.Solve{
		Warm: true, Tol: cfg.Solver.Tolerance() / 4, Workers: cfg.workers(), Span: span,
	})
	emb.countSolve(stats)
	if err != nil {
		return false, fmt.Errorf("commute: incremental verification solve: %w", err)
	}
	emb.certify(stats)
	return true, nil
}
