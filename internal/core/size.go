package core

// oracleSizer is the optional footprint interface a commute oracle may
// implement. It is asserted rather than added to commute.Oracle so
// lightweight oracles (e.g. the shortest-path reference) stay minimal.
type oracleSizer interface {
	SizeBytes() int64
}

// SizeBytes estimates the detector's resident heap footprint for the
// memory-governance ledger (internal/budget): the retained previous
// snapshot, the warm commute oracle (pseudoinverse or embedding plus
// solver scratch), the transition history window, and the δ
// re-selection cache. This is what hibernating the stream releases and
// what RestoreOnline reconstructs.
//
// Like every other detector method it must be called with the owner's
// synchronization (the serving layer's per-stream worker); the
// estimate walks slice capacities, so it is O(#slices), not O(bytes).
func (o *OnlineDetector) SizeBytes() int64 {
	if o == nil {
		return 0
	}
	b := int64(256) // fixed fields: cfg, counters, stats
	b += o.prev.SizeBytes()
	if s, ok := o.prevOra.(oracleSizer); ok {
		b += s.SizeBytes()
	}
	b += int64(cap(o.history)) * 40 // T, Total, Scores header
	for _, tr := range o.history {
		b += int64(cap(tr.Scores)) * 24
	}
	b += int64(cap(o.steps)) * 48 // two slice headers
	for _, st := range o.steps {
		b += int64(cap(st.residuals))*8 + int64(cap(st.nodes))*8
	}
	b += int64(cap(o.marks.mark)) * 8
	return b
}
