package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// totalNodesAt counts Σ_t |V_t| at threshold delta the direct way,
// re-thresholding every transition's scores.
func totalNodesAt(transitions []Transition, delta float64) int {
	var total int
	for _, tr := range transitions {
		total += len(AnomalousNodes(AnomalousEdges(tr.Scores, delta)))
	}
	return total
}

// selectDeltaMergedSort is the merged-breakpoint δ search the detector
// ran before the bisection, kept as the bit-exact reference for
// selectDeltaFromSteps: concatenate every transition's residuals into
// *scratch (reused across calls, as the detector reused it), sort them
// and binary-search for the largest breakpoint whose node total still
// meets the target. It counts nodes with its own sort.Search over each
// transition's residuals, independent of deltaSteps.prefix.
func selectDeltaMergedSort(steps []deltaSteps, l float64, scratch *[]float64) float64 {
	breaks := (*scratch)[:0]
	for i := range steps {
		breaks = append(breaks, steps[i].residuals...)
	}
	*scratch = breaks
	target := targetNodes(l, len(steps))
	if target <= 0 {
		var hi float64
		for _, d := range steps {
			if d.residuals[0] > hi {
				hi = d.residuals[0]
			}
		}
		return hi + 1
	}
	totalAt := func(delta float64) int {
		var total int
		for _, d := range steps {
			e := len(d.nodes) - 1
			p := sort.Search(len(d.residuals), func(i int) bool { return d.residuals[i] < delta })
			if p > e {
				p = e
			}
			total += d.nodes[p]
		}
		return total
	}
	if totalAt(0) < target {
		return 0
	}
	sort.Float64s(breaks)
	idx := sort.Search(len(breaks), func(i int) bool { return totalAt(breaks[i]) < target })
	if idx == 0 {
		return 0
	}
	delta := breaks[idx-1]
	if delta < 0 {
		delta = 0
	}
	return delta
}

// buildSteps precomputes the step functions of trs.
func buildSteps(trs []Transition) []deltaSteps {
	var marks nodeMarker
	steps := make([]deltaSteps, len(trs))
	for i, tr := range trs {
		steps[i] = newDeltaSteps(tr, &marks)
	}
	return steps
}

// sortScores orders scores descending, as TransitionScores returns them.
func sortScores(scores []EdgeScore) {
	sort.SliceStable(scores, func(a, b int) bool { return scores[a].Score > scores[b].Score })
}

// edgeCaseHistory builds a random history aimed at the selection's edge
// cases: empty transitions, scores drawn from a few quantized levels
// (so residuals tie within and across transitions), decimal levels
// whose running residual dips below zero in floating point, and few
// enough nodes that node counts saturate.
func edgeCaseHistory(rng *rand.Rand, count int) []Transition {
	trs := make([]Transition, count)
	for t := range trs {
		var level func() float64
		switch rng.Intn(4) {
		case 0:
			level = func() float64 { return rng.ExpFloat64() }
		case 1:
			level = func() float64 { return float64(1+rng.Intn(9)) / 10 }
		case 2:
			level = func() float64 { return float64(1+rng.Intn(4)) / 4 }
		default:
			level = nil // empty transition
		}
		var scores []EdgeScore
		if level != nil {
			scores = make([]EdgeScore, 1+rng.Intn(12))
			for e := range scores {
				i := rng.Intn(9)
				scores[e] = EdgeScore{I: i, J: i + 1 + rng.Intn(3), Score: level()}
			}
			sortScores(scores)
		}
		trs[t] = Transition{T: t, Scores: scores, Total: TotalScore(scores)}
	}
	return trs
}

// The bisection must return the merged-sort search's δ bit for bit
// across every shape of history, including the unreachable-target and
// flag-nothing early returns.
func TestSelectDeltaMatchesMergedSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var scratch []float64
	var dips, unreachable, exact int
	for trial := 0; trial < 3000; trial++ {
		trs := edgeCaseHistory(rng, 1+rng.Intn(8))
		steps := buildSteps(trs)
		for _, d := range steps {
			if d.residuals[len(d.residuals)-1] < 0 {
				dips++
			}
		}
		for _, l := range []float64{0, 0.1, 0.5, 1, 2, 3, 5, 20} {
			want := selectDeltaMergedSort(steps, l, &scratch)
			got := selectDeltaFromSteps(steps, l)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d (l=%g): bisection δ=%v (%#x), merged-sort δ=%v (%#x)",
					trial, l, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if batch := SelectDelta(trs, l); math.Float64bits(batch) != math.Float64bits(want) {
				t.Fatalf("trial %d (l=%g): SelectDelta δ=%v, merged-sort δ=%v", trial, l, batch, want)
			}
			target := targetNodes(l, len(trs))
			switch {
			case target > 0 && totalNodesAt(trs, 0) < target:
				unreachable++
			case target > 0 && want > 0:
				exact++
			}
		}
	}
	if dips == 0 || unreachable == 0 || exact == 0 {
		t.Fatalf("history generator missed a case: %d negative final residuals, %d unreachable targets, %d positive selections",
			dips, unreachable, exact)
	}
}

// A budget too large for int must flag everything, like any other
// unreachable budget, instead of wrapping to "flag nothing".
func TestSelectDeltaHugeBudgetFlagsEverything(t *testing.T) {
	trs := edgeCaseHistory(rand.New(rand.NewSource(67)), 6)
	want := SelectDelta(trs, 100)
	if want != 0 || totalNodesAt(trs, want) != totalNodesAt(trs, 0) {
		t.Fatalf("l=100 selected δ=%g, want 0 (every node flagged)", want)
	}
	for _, l := range []float64{1e18, 1e300, math.Inf(1)} {
		if got := SelectDelta(trs, l); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("l=%g selected δ=%g, l=100 selected %g", l, got, want)
		}
	}
}

// assertEdgesAt checks edgesAt against AnomalousEdges at delta: the
// same prefix of scores, nil exactly when AnomalousEdges returns nil,
// and the matching node count.
func assertEdgesAt(t testing.TB, d deltaSteps, scores []EdgeScore, delta float64) {
	t.Helper()
	want := AnomalousEdges(scores, delta)
	got := d.edgesAt(scores, delta)
	if len(got) != len(want) || (got == nil) != (want == nil) {
		t.Fatalf("δ=%v: edgesAt kept %d edges (nil=%v), AnomalousEdges %d (nil=%v)",
			delta, len(got), got == nil, len(want), want == nil)
	}
	if n := len(AnomalousNodes(want)); d.nodesAt(delta) != n {
		t.Fatalf("δ=%v: nodesAt=%d, want %d", delta, d.nodesAt(delta), n)
	}
}

// edgesAt must reproduce AnomalousEdges at every breakpoint and on
// either side of it — the thresholds where the kept prefix changes.
func TestEdgesAtMatchesAnomalousEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 400; trial++ {
		for _, tr := range edgeCaseHistory(rng, 4) {
			d := buildSteps([]Transition{tr})[0]
			deltas := []float64{0, -1, math.Inf(1), math.Inf(-1)}
			for _, r := range d.residuals {
				deltas = append(deltas, r, math.Nextafter(r, math.Inf(1)), math.Nextafter(r, math.Inf(-1)))
			}
			for _, delta := range deltas {
				assertEdgesAt(t, d, tr.Scores, delta)
			}
		}
	}
}

func TestSelectDeltaAllocatesNothing(t *testing.T) {
	steps := buildSteps(edgeCaseHistory(rand.New(rand.NewSource(73)), 64))
	if allocs := testing.AllocsPerRun(20, func() { selectDeltaFromSteps(steps, 3) }); allocs != 0 {
		t.Fatalf("selectDeltaFromSteps allocated %v times per call", allocs)
	}
}

// FuzzSelectDelta decodes up to 129 bytes into a small history and a
// budget l, checks the bisection against the merged-sort reference bit
// for bit, then edgesAt against AnomalousEdges at the selected δ and at
// every breakpoint. Byte 0 is l in sixteenths; after it, each pair of bytes
// is one edge (score in tenths from the first byte, the node pair from
// the second's nibbles), and a zero first byte starts a new transition
// instead.
func FuzzSelectDelta(f *testing.F) {
	f.Add([]byte{48, 3, 0x10, 2, 0x21, 1, 0x32, 0, 0, 7, 0x40, 1, 0x41})
	f.Add([]byte{16, 1, 0x10, 2, 0x10, 3, 0x10})
	f.Add([]byte{255, 9, 0x12, 0, 0, 0, 0})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 129 {
			return // keep histories small: at most 64 edges
		}
		l := float64(data[0]) / 16
		trs := []Transition{{}}
		for k := 1; k+1 < len(data); k += 2 {
			if data[k] == 0 {
				trs = append(trs, Transition{T: len(trs)})
				continue
			}
			i, j := int(data[k+1]&15), int(data[k+1]>>4)
			if i == j {
				j = 16
			}
			tr := &trs[len(trs)-1]
			tr.Scores = append(tr.Scores, EdgeScore{I: min(i, j), J: max(i, j), Score: float64(data[k]) / 10})
		}
		for i := range trs {
			sortScores(trs[i].Scores)
			trs[i].Total = TotalScore(trs[i].Scores)
		}
		steps := buildSteps(trs)
		var scratch []float64
		want := selectDeltaMergedSort(steps, l, &scratch)
		got := selectDeltaFromSteps(steps, l)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("l=%g: bisection δ=%v, merged-sort δ=%v", l, got, want)
		}
		for i, tr := range trs {
			assertEdgesAt(t, steps[i], tr.Scores, got)
			for _, r := range steps[i].residuals {
				assertEdgesAt(t, steps[i], tr.Scores, r)
			}
		}
	})
}
