package core

import "math"

// This file makes the per-Push δ re-selection and re-thresholding of
// the streaming detector cheap. SelectDelta needs Σ_t |V_t| at many
// candidate thresholds, and a report needs every transition's E_t at
// the chosen one; evaluating either with AnomalousEdges costs O(E) per
// transition. Instead, each transition's kept prefix as a function of δ
// is a non-increasing step function whose breakpoints are the residual
// masses of its score prefixes. Precomputing it once per transition
// turns every evaluation into a binary search over that transition's
// residuals, and δ itself is found by bisecting the non-negative floats
// in IEEE-754 bit order: at most 64 total evaluations, each exiting as
// soon as the running node count reaches the target. A push's
// selection thus costs O(64·T·log E), with no allocation and no sort,
// however deep the window is.

// deltaSteps is one transition's precomputed (δ → |V_t|) step
// function. residuals[p] is the score mass left after removing the top
// p edges (residuals[0] = the transition's total); nodes[p] is the
// node count touched by those p edges. Both come from the descending
// score order, matching AnomalousEdges exactly, including its
// floating-point subtraction sequence.
type deltaSteps struct {
	residuals []float64
	nodes     []int
}

// nodeMarker is a reusable epoch-stamped membership set over node ids;
// reset is O(1), so building many step functions allocates nothing
// after the mark slice has grown to the largest node id.
type nodeMarker struct {
	mark  []int
	epoch int
}

func (m *nodeMarker) reset() { m.epoch++ }

// add inserts v and reports whether it was new this epoch.
func (m *nodeMarker) add(v int) bool {
	if v >= len(m.mark) {
		grown := make([]int, v+1+len(m.mark))
		copy(grown, m.mark)
		m.mark = grown
	}
	if m.mark[v] == m.epoch {
		return false
	}
	m.mark[v] = m.epoch
	return true
}

// newDeltaSteps precomputes tr's step function. scores must be sorted
// descending (as TransitionScores returns them).
func newDeltaSteps(tr Transition, marks *nodeMarker) deltaSteps {
	d := deltaSteps{
		residuals: make([]float64, len(tr.Scores)+1),
		nodes:     make([]int, len(tr.Scores)+1),
	}
	marks.reset()
	residual := TotalScore(tr.Scores)
	d.residuals[0] = residual
	count := 0
	for p, s := range tr.Scores {
		residual -= s.Score
		if marks.add(s.I) {
			count++
		}
		if marks.add(s.J) {
			count++
		}
		d.residuals[p+1] = residual
		d.nodes[p+1] = count
	}
	return d
}

// prefix returns how many top edges AnomalousEdges keeps at threshold
// delta: the smallest p with residuals[p] < delta, or every edge when
// no prefix qualifies. residuals is non-increasing (each step subtracts
// a positive score), so p is the count of residuals ≥ delta among all
// but the last. The search halves the range a fixed number of times,
// set by the length alone, which keeps it cheap on the short lists of
// few-edge transitions where a branchy search mispredicts.
func (d *deltaSteps) prefix(delta float64) int {
	r := d.residuals[:len(d.residuals)-1]
	base, n := 0, len(r)
	for n > 1 {
		half := n >> 1
		if r[base+half] >= delta {
			base += half
		}
		n -= half
	}
	if n == 1 && r[base] >= delta {
		base++
	}
	return base
}

// nodesAt returns |V_t| at threshold delta — by construction exactly
// len(AnomalousNodes(AnomalousEdges(tr.Scores, delta))).
func (d *deltaSteps) nodesAt(delta float64) int { return d.nodes[d.prefix(delta)] }

// edgesAt returns E_t at threshold delta for the transition whose
// sorted scores d was built from — exactly AnomalousEdges(scores,
// delta), nil included, without re-summing the scores.
func (d *deltaSteps) edgesAt(scores []EdgeScore, delta float64) []EdgeScore {
	if d.residuals[0] < delta {
		return nil
	}
	return scores[:d.prefix(delta)]
}

// targetNodes converts the node budget l·T to a count. A budget beyond
// int range saturates instead of wrapping negative: it can never be met,
// so it must select δ = 0 (flag everything) like any other unreachable
// budget rather than "flag nothing".
func targetNodes(l float64, transitions int) int {
	want := l * float64(transitions)
	switch {
	case want >= float64(math.MaxInt):
		return math.MaxInt
	case !(want >= 1): // NaN included
		return 0
	}
	return int(want)
}

// reaches reports whether Σ_t |V_t|(delta) is at least target, stopping
// as soon as the running total gets there.
func reaches(steps []deltaSteps, delta float64, target int) bool {
	total := 0
	for i := range steps {
		total += steps[i].nodesAt(delta)
		if total >= target {
			return true
		}
	}
	return false
}

// selectDeltaFromSteps returns the largest δ whose total node count
// over all transitions is at least l per transition — the exact answer
// the old 200-step bisection converged toward.
//
// Correctness: Σ nodesAt is non-increasing in δ and constant on every
// interval (bᵢ, bᵢ₊₁] between consecutive breakpoints (the residuals of
// all transitions), so the supremum of {δ : total(δ) ≥ target} is
// attained at a breakpoint b*, and b* is also the largest float64 that
// still meets the target. Transition totals are non-negative
// breakpoints, so the smallest breakpoint ≥ 0 exists and shares δ = 0's
// node total: b* lies in [0, max total] whenever δ = 0 meets the
// target. The non-negative floats order like their IEEE-754 bit
// patterns, so bisecting the bit patterns of that range lands exactly
// on b* in at most 64 steps.
func selectDeltaFromSteps(steps []deltaSteps, l float64) float64 {
	var hi float64
	for i := range steps {
		if steps[i].residuals[0] > hi {
			hi = steps[i].residuals[0]
		}
	}
	target := targetNodes(l, len(steps))
	if target <= 0 {
		return hi + 1 // δ above every total mass: no anomalies anywhere
	}
	if !reaches(steps, 0, target) {
		return 0 // even reporting everything cannot reach the target
	}
	lo, up := uint64(0), math.Float64bits(hi)
	for lo < up {
		mid := lo + (up-lo+1)/2
		if reaches(steps, math.Float64frombits(mid), target) {
			lo = mid
		} else {
			up = mid - 1
		}
	}
	return math.Float64frombits(lo)
}
