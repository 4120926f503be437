package core

import (
	"errors"
	"fmt"
	"math"

	"dyngraph/internal/commute"
	"dyngraph/internal/graph"
)

// This file is the durability seam of the streaming detector: the
// serving layer journals accepted pushes (internal/wal) and rebuilds
// detectors after a crash from the journaled state, without replaying
// oracle builds. Scores are restored verbatim — they are the one part
// of the state that is expensive to recompute and, for warm-started
// embedding streams, not bit-reproducible from a cold start — while
// the δ-selection cache and the threshold itself are recomputed from
// the restored history, which doubles as an integrity check against
// the journaled δ. The previous instance's embedding travels too, when
// the durability layer has it, so the next Push builds one oracle
// rather than two.

// ErrInvalidScore marks restored state holding a transition score
// outside the detector's domain: a pair that is not 0 ≤ I < J < N, or a
// score that is not finite and positive. Every score the detector
// produces is inside it, so such a journal is corrupt.
var ErrInvalidScore = errors.New("core: restore: invalid score")

// OnlineState is the detector-visible state a durability layer must
// persist to reconstruct an OnlineDetector exactly: everything else
// (the δ step-function cache, the threshold, scratch) is a deterministic
// function of it. The previous instance's commute oracle is optional
// (Oracle): without it the next Push rebuilds the oracle from Prev.
type OnlineState struct {
	// N is the current vertex count (0 before the first instance;
	// non-decreasing over the stream's life).
	N int
	// T is the number of instances consumed.
	T int
	// Evicted is the number of transitions dropped by the max-history
	// window.
	Evicted int
	// Delta is the current global threshold. It is redundant — δ is
	// recomputed from History on restore — and serves as the integrity
	// check: RestoreOnline fails if the recomputed value differs.
	Delta float64
	// History is the retained scored-transition window, oldest first.
	History []Transition
	// Prev is the most recent graph instance (nil only when T is 0).
	Prev *graph.Graph
	// VertexIDs is the external-ID mapping in dense-index order (nil
	// for raw index streams; len == N when set).
	VertexIDs []string
	// Oracle is the embedding state of Prev's commute oracle, or nil.
	// State sets it whenever the detector holds an embedding. It is nil
	// for exact oracles (a pure function of Prev, cheap to rebuild), for
	// the ADJ variant (which builds none) and before the first instance.
	// Nil means the next Push rebuilds the oracle from Prev, as after a
	// restore from a journal that does not carry it.
	Oracle *commute.State
}

// State snapshots the detector for a durability layer. The history
// slice is copied (the detector's eviction compacts its own backing
// array in place), but the per-transition score slices and the
// oracle's float blocks are shared: they are immutable once built.
func (o *OnlineDetector) State() OnlineState {
	st := OnlineState{
		N:       o.n,
		T:       o.t,
		Evicted: o.evicted,
		Delta:   o.delta,
		History: append([]Transition(nil), o.history...),
		Prev:    o.prev,
	}
	if o.ids != nil {
		st.VertexIDs = append([]string(nil), o.ids...)
	}
	if emb, ok := o.prevOra.(*commute.Embedding); ok {
		ost := emb.State()
		st.Oracle = &ost
	}
	return st
}

// RestoreOnline reconstructs a streaming detector from journaled
// state, as if it had consumed the original pushes: the δ-selection
// step cache is rebuilt from the restored scores and the threshold is
// re-selected over them. The recomputed δ must equal st.Delta bit for
// bit — δ is a pure function of the retained score history, so any
// difference means the journal does not describe the detector it
// claims to and the restore is refused.
//
// With st.Oracle set, the previous instance's embedding is reinstated
// as it was (commute.Restore), so the next Push builds one oracle and
// every regime continues bit-identically. A block that does not fit
// st.Prev and cfg is refused. Without it, the first Push rebuilds the
// oracle from st.Prev before scoring. That rebuild is bit-identical to
// the lost oracle for the exact regime and for per-instance-seeded
// embeddings (both are pure functions of the graph and the derived
// seed); for SharedProjections streams, whose oracles warm-start off
// each other, it is a cold build that agrees with the lost warm one
// only to solver tolerance — see docs/DURABILITY.md.
//
// Every restored score must be in the detector's domain
// (ErrInvalidScore), so a corrupt journal is refused rather than
// indexing out of range later.
func RestoreOnline(cfg Config, l float64, st OnlineState) (*OnlineDetector, error) {
	if st.T < 0 || st.Evicted < 0 {
		return nil, fmt.Errorf("core: restore: negative instance (%d) or eviction (%d) count", st.T, st.Evicted)
	}
	if st.T == 0 {
		if len(st.History) != 0 || st.Prev != nil || st.Oracle != nil {
			return nil, fmt.Errorf("core: restore: zero instances but %d transitions, a previous graph or an oracle retained", len(st.History))
		}
		return NewOnline(cfg, l), nil
	}
	if st.Prev == nil {
		return nil, fmt.Errorf("core: restore: %d instances consumed but no previous graph", st.T)
	}
	if st.Prev.N() != st.N {
		return nil, fmt.Errorf("core: restore: previous graph has %d vertices, state says %d", st.Prev.N(), st.N)
	}
	if st.VertexIDs != nil && len(st.VertexIDs) != st.N {
		return nil, fmt.Errorf("core: restore: %d vertex IDs for %d vertices", len(st.VertexIDs), st.N)
	}
	if max := st.T - 1; len(st.History) > max {
		return nil, fmt.Errorf("core: restore: %d retained transitions exceed the %d consumed instances", len(st.History), st.T)
	}
	// Retained transitions must be the contiguous suffix ending at the
	// newest transition T-2, with the eviction count accounting for the
	// dropped prefix.
	first := st.T - 1 - len(st.History)
	if st.Evicted != first {
		return nil, fmt.Errorf("core: restore: eviction count %d does not match window start %d", st.Evicted, first)
	}
	for i, tr := range st.History {
		if tr.T != first+i {
			return nil, fmt.Errorf("core: restore: transition %d at window position %d, want %d", tr.T, i, first+i)
		}
		for _, sc := range tr.Scores {
			if sc.I < 0 || sc.I >= sc.J || sc.J >= st.N || !(sc.Score > 0) || math.IsInf(sc.Score, 1) {
				return nil, fmt.Errorf("%w: transition %d pair (%d,%d) score %g for %d vertices",
					ErrInvalidScore, tr.T, sc.I, sc.J, sc.Score, st.N)
			}
		}
	}

	o := NewOnline(cfg, l)
	o.n = st.N
	o.t = st.T
	o.evicted = st.Evicted
	o.prev = st.Prev
	if st.VertexIDs != nil {
		o.ids = append([]string(nil), st.VertexIDs...)
	}
	o.history = append([]Transition(nil), st.History...)
	o.steps = make([]deltaSteps, len(o.history))
	for i, tr := range o.history {
		o.steps[i] = newDeltaSteps(tr, &o.marks)
	}
	if len(o.steps) > 0 {
		o.delta = selectDeltaFromSteps(o.steps, o.l)
	}
	if o.delta != st.Delta {
		return nil, fmt.Errorf("core: restore: δ re-selected over the restored history is %g, journal says %g (journal does not match its own scores)",
			o.delta, st.Delta)
	}
	if st.Oracle != nil {
		if cfg.Variant == VariantADJ || commute.UseExact(st.N, cfg.ExactCutoff) {
			return nil, fmt.Errorf("core: restore: embedding state for a stream whose %d-vertex instances build no embedding", st.N)
		}
		ora, err := commute.Restore(st.Prev, *st.Oracle, cfg.instanceCommute(st.T-1))
		if err != nil {
			return nil, fmt.Errorf("core: restore: oracle of instance %d: %w", st.T-1, err)
		}
		o.prevOra = ora
	}
	return o, nil
}

// RestoredOracle reports how a detector returned by RestoreOnline
// stands with the previous instance's oracle: "restored" when it holds
// one, "rebuild" when its next Push must first rebuild it from the
// previous graph, and "none" when no oracle is needed (no instance yet,
// or the ADJ variant). After the next Push it reports "restored" or
// "none".
func (o *OnlineDetector) RestoredOracle() string {
	switch {
	case o.prevOra != nil:
		return "restored"
	case o.t > 0 && o.cfg.Variant != VariantADJ:
		return "rebuild"
	default:
		return "none"
	}
}
