package solver

import "dyngraph/internal/obs"

// Span emission: New and SolveBlock each open one child span under the
// caller's parent (Build.Span, Solve.Span). A nil parent disables the
// spans (obs spans are nil-safe), so batch paths that pass nil pay only
// the receiver checks.

// PrecondSpanName is the span the solver emits around preconditioner
// setup; its "mode" attribute records the reuse path taken (cold,
// shared or patched).
const PrecondSpanName = "precond"

// SolveSpanName is the span the solver emits around a blocked solve,
// carrying the warm/cold mode and the iteration counts.
const SolveSpanName = "pcg"

func annotatePrecond(sp *obs.Span, s *Laplacian) {
	if sp == nil {
		return
	}
	sp.SetString("precond", s.precond.String())
	mode := s.reuseKind
	if mode == "" {
		mode = "cold"
	}
	sp.SetString("mode", mode)
	sp.SetInt("n", int64(s.n))
	sp.SetInt("components", int64(len(s.size)))
}

func annotateSolve(sp *obs.Span, stats []Stats, k int, warm bool, err error) {
	if sp == nil {
		return
	}
	var total, block int
	for _, st := range stats {
		total += st.Iterations
		if st.Iterations > block {
			block = st.Iterations
		}
	}
	sp.SetInt("k", int64(k))
	sp.SetBool("warm", warm)
	sp.SetInt("pcg_iterations", int64(total))
	sp.SetInt("block_iterations", int64(block))
	if err != nil {
		sp.SetString("error", err.Error())
	}
}
