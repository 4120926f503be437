package solver

// SizeBytes estimates the resident heap footprint of the Laplacian
// solver state for the memory-governance ledger (internal/budget): the
// CSR Laplacian, component bookkeeping, the preconditioner (Jacobi
// diagonal or spanning forest), and the single- and multi-RHS scratch
// blocks that persist across solves. These buffers are exactly
// what hibernating a stream releases. Rehydration rebuilds them from
// the journaled graph (Restore); only a tree preconditioner's forest
// is serialized (Forest), because a patched forest is not a function of
// the graph.
func (s *Laplacian) SizeBytes() int64 {
	if s == nil {
		return 0
	}
	b := s.l.SizeBytes()
	words := cap(s.comp) + cap(s.size) + cap(s.invDiag) +
		cap(s.r) + cap(s.z) + cap(s.p) + cap(s.q) + cap(s.s1) +
		cap(s.csum) + cap(s.tsum)
	b += int64(words)*8 + 10*24
	b += s.tree.sizeBytes()
	b += s.blk.sizeBytes()
	return b + 64 // fixed fields: n, flags, Options
}

func (t *spanningTree) sizeBytes() int64 {
	if t == nil {
		return 0
	}
	words := cap(t.parent) + cap(t.upWeight) + cap(t.order) +
		cap(t.comp) + cap(t.compSize)
	return int64(words)*8 + 5*24 + 8
}

func (b *blockScratch) sizeBytes() int64 {
	if b == nil {
		return 0
	}
	words := cap(b.r) + cap(b.z) + cap(b.p) + cap(b.q) + cap(b.s1) +
		cap(b.csum) + cap(b.tsum) + cap(b.colv) + cap(b.cols)
	return int64(words)*8 + 9*24 + 8
}
