package solver

import (
	"fmt"
	"sort"

	"dyngraph/internal/graph"
	"dyngraph/internal/sparse"
)

// spanningTree is a rooted spanning forest of a graph together with the
// traversal order needed to solve its Laplacian system in O(n). It
// doubles as the combinatorial preconditioner for PCG: solving against
// the forest Laplacian is our stand-in for the low-stretch-tree
// preconditioning inside the Spielman–Teng solver the paper borrows.
type spanningTree struct {
	n        int
	parent   []int     // parent[v] = parent vertex, -1 for roots
	upWeight []float64 // weight of the edge to the parent, 0 for roots
	order    []int     // vertices in BFS (root-first) order per component
	comp     []int     // component id per vertex
	compSize []int     // vertices per component
}

// maxWeightSpanningTree builds a maximum-weight spanning forest with
// Kruskal's algorithm. Heavy edges carry most of the random-walk flux,
// so keeping them makes the forest a good spectral approximation of the
// graph — the same intuition as low-stretch trees, achievable with
// stdlib-only machinery.
func maxWeightSpanningTree(g *graph.Graph) *spanningTree {
	n := g.N()
	edges := g.Edges()
	sort.Slice(edges, func(a, b int) bool { return edges[a].W > edges[b].W })

	uf := newUnionFind(n)
	adj := make([][]graph.Edge, n) // forest adjacency
	for _, e := range edges {
		if uf.union(e.I, e.J) {
			adj[e.I] = append(adj[e.I], e)
			adj[e.J] = append(adj[e.J], graph.Edge{I: e.J, J: e.I, W: e.W})
		}
	}

	t := &spanningTree{
		n:        n,
		parent:   make([]int, n),
		upWeight: make([]float64, n),
		comp:     make([]int, n),
	}
	for i := range t.parent {
		t.parent[i] = -1
		t.comp[i] = -1
	}
	// BFS from every unvisited vertex to root each component.
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if t.comp[s] != -1 {
			continue
		}
		id := len(t.compSize)
		size := 0
		t.comp[s] = id
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			t.order = append(t.order, v)
			size++
			for _, e := range adj[v] {
				u := e.J
				if t.comp[u] != -1 {
					continue
				}
				t.comp[u] = id
				t.parent[u] = v
				t.upWeight[u] = e.W
				queue = append(queue, u)
			}
		}
		t.compSize = append(t.compSize, size)
	}
	return t
}

// Forest is the persistable part of a tree preconditioner: parent[v]
// (-1 for roots) and the root-first BFS order, as int32. The forest's
// edge weights and component labels are functions of the graph, so they
// are not part of it. A cold build picks its forest by Kruskal, but a
// stream of reweights keeps patching its first one (see patched), and
// that forest is in general not the one Kruskal would pick for the
// current graph. A different forest changes the PCG iterates, so a
// restore adopts the persisted forest (Restore) rather than rebuilding
// one.
type Forest struct {
	Parent []int32
	Order  []int32
}

// Forest returns a copy of s's spanning forest, or nil when s is nil or
// does not use the tree preconditioner.
func (s *Laplacian) Forest() *Forest {
	if s == nil || s.tree == nil {
		return nil
	}
	f := &Forest{Parent: make([]int32, s.n), Order: make([]int32, s.n)}
	for v, p := range s.tree.parent {
		f.Parent[v] = int32(p)
	}
	for i, v := range s.tree.order {
		f.Order[i] = int32(v)
	}
	return f
}

// tree rebuilds the spanning tree f describes over g, reading the edge
// weights from g. It refuses a forest that is not one of g: the order
// must be a permutation of g's vertices, and every non-root's parent
// must be in range, listed before it and joined to it by an edge of g.
// Component ids follow the order of the roots, as in
// maxWeightSpanningTree. Restore checks that there is one tree per
// component of g.
func (f *Forest) tree(g *graph.Graph) (*spanningTree, error) {
	n := g.N()
	if len(f.Parent) != n || len(f.Order) != n {
		return nil, fmt.Errorf("solver: forest has %d parents and %d order entries for %d vertices", len(f.Parent), len(f.Order), n)
	}
	t := &spanningTree{
		n:        n,
		parent:   make([]int, n),
		upWeight: make([]float64, n),
		order:    make([]int, n),
		comp:     make([]int, n),
	}
	for i := range t.comp {
		t.comp[i] = -1 // not yet listed
	}
	for idx, v32 := range f.Order {
		v := int(v32)
		if v < 0 || v >= n || t.comp[v] >= 0 {
			return nil, fmt.Errorf("solver: forest order is not a permutation (entry %d is %d)", idx, v)
		}
		t.order[idx] = v
		p := int(f.Parent[v])
		t.parent[v] = p
		if p == -1 {
			t.comp[v] = len(t.compSize)
			t.compSize = append(t.compSize, 1)
			continue
		}
		if p < 0 || p >= n || t.comp[p] < 0 {
			return nil, fmt.Errorf("solver: forest parent %d of vertex %d is not listed before it", p, v)
		}
		w := g.Weight(v, p)
		if !(w > 0) {
			return nil, fmt.Errorf("solver: forest edge (%d,%d) is not an edge of the graph", v, p)
		}
		t.upWeight[v] = w
		t.comp[v] = t.comp[p]
		t.compSize[t.comp[v]]++
	}
	return t, nil
}

// patched returns a copy of t that is a valid spanning forest of g,
// where g differs from the graph t was built for exactly on the node
// pairs in diff. Forest-edge weight changes are patched in place
// (copy-on-write on upWeight; the shared traversal structure is never
// mutated). It reports false — patching impossible — when a forest edge
// was deleted or a new edge bridges two forest components: either event
// changes the component structure the solver's projection depends on.
// Non-forest edge churn inside a component leaves the forest valid; it
// may just no longer be the maximum-weight one.
func (t *spanningTree) patched(g *graph.Graph, diff []graph.Key) (*spanningTree, bool) {
	up := t.upWeight
	copied := false
	for _, k := range diff {
		w := g.Weight(k.I, k.J)
		child := -1
		switch {
		case t.parent[k.I] == k.J:
			child = k.I
		case t.parent[k.J] == k.I:
			child = k.J
		}
		if child >= 0 {
			if w == 0 {
				return nil, false // forest edge deleted
			}
			if !copied {
				up = append([]float64(nil), t.upWeight...)
				copied = true
			}
			up[child] = w
			continue
		}
		if w > 0 && t.comp[k.I] != t.comp[k.J] {
			return nil, false // new edge merges two components
		}
	}
	cl := *t
	cl.upWeight = up
	return &cl, true
}

// solve computes x with L_T x = b exactly, where L_T is the forest
// Laplacian, assuming b sums to zero on every component (the caller
// projects). The returned x is mean-centered per component, which makes
// the map b ↦ x the symmetric PSD pseudoinverse L_T⁺ — a valid PCG
// preconditioner. dst and scratch must have length n and means the
// component count; dst receives x.
//
// The algorithm uses the flow interpretation of tree Laplacian systems:
// summing L x = b over the subtree below v shows the potential drop
// across the edge (v, parent) is (subtree sum of b)/weight.
func (t *spanningTree) solve(dst, b, scratch, means []float64) {
	n := t.n
	// scratch accumulates subtree sums of b, leaf-to-root.
	copy(scratch, b)
	for k := n - 1; k >= 0; k-- {
		v := t.order[k]
		if p := t.parent[v]; p >= 0 {
			scratch[p] += scratch[v]
		}
	}
	// Potentials root-to-leaf: x_v = x_parent + subtreeSum_v / w.
	for _, v := range t.order {
		p := t.parent[v]
		if p < 0 {
			dst[v] = 0
			continue
		}
		dst[v] = dst[p] + scratch[v]/t.upWeight[v]
	}
	// Mean-center per component so the operator is symmetric (L_T⁺).
	for c := range means {
		means[c] = 0
	}
	for v := 0; v < n; v++ {
		means[t.comp[v]] += dst[v]
	}
	for c := range means {
		means[c] /= float64(t.compSize[c])
	}
	for v := 0; v < n; v++ {
		dst[v] -= means[t.comp[v]]
	}
}

// solveBlock is solve for a row-major n×k block of right-hand sides,
// restricted to the packed column list cols (nil means all). One
// traversal of the tree order serves every column; per column the
// arithmetic matches solve exactly, so column c of the result is
// bit-identical to solve on column c alone. dst and scratch are n×k
// blocks, means a compSize×k block.
func (t *spanningTree) solveBlock(dst, b, scratch, means []float64, k int, cols []int) {
	n := t.n
	sparse.CopyCols(scratch, b, k, cols)
	// Subtree sums of b, leaf-to-root.
	for idx := n - 1; idx >= 0; idx-- {
		v := t.order[idx]
		p := t.parent[v]
		if p < 0 {
			continue
		}
		sv := scratch[v*k : v*k+k]
		sp := scratch[p*k : p*k+k]
		if cols == nil {
			for c, s := range sv {
				sp[c] += s
			}
			continue
		}
		for _, c := range cols {
			sp[c] += sv[c]
		}
	}
	// Potentials root-to-leaf.
	for _, v := range t.order {
		p := t.parent[v]
		dv := dst[v*k : v*k+k]
		if p < 0 {
			if cols == nil {
				for c := range dv {
					dv[c] = 0
				}
			} else {
				for _, c := range cols {
					dv[c] = 0
				}
			}
			continue
		}
		w := t.upWeight[v]
		dp := dst[p*k : p*k+k]
		sv := scratch[v*k : v*k+k]
		if cols == nil {
			for c := range dv {
				dv[c] = dp[c] + sv[c]/w
			}
			continue
		}
		for _, c := range cols {
			dv[c] = dp[c] + sv[c]/w
		}
	}
	// Mean-center per component per column.
	for comp := range t.compSize {
		mr := means[comp*k : comp*k+k]
		if cols == nil {
			for c := range mr {
				mr[c] = 0
			}
		} else {
			for _, c := range cols {
				mr[c] = 0
			}
		}
	}
	for v := 0; v < n; v++ {
		mr := means[t.comp[v]*k : t.comp[v]*k+k]
		dv := dst[v*k : v*k+k]
		if cols == nil {
			for c, d := range dv {
				mr[c] += d
			}
			continue
		}
		for _, c := range cols {
			mr[c] += dv[c]
		}
	}
	for comp, size := range t.compSize {
		mr := means[comp*k : comp*k+k]
		if cols == nil {
			for c := range mr {
				mr[c] /= float64(size)
			}
		} else {
			for _, c := range cols {
				mr[c] /= float64(size)
			}
		}
	}
	for v := 0; v < n; v++ {
		mr := means[t.comp[v]*k : t.comp[v]*k+k]
		dv := dst[v*k : v*k+k]
		if cols == nil {
			for c := range dv {
				dv[c] -= mr[c]
			}
			continue
		}
		for _, c := range cols {
			dv[c] -= mr[c]
		}
	}
}
