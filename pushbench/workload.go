package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"dyngraph/internal/graph"
	"dyngraph/internal/service"
)

// workload is one traffic mix: the snapshot shape, the stream config
// the daemon is given, and how the clients drive it.
type workload struct {
	name    string
	n       int // vertices per snapshot
	streams int
	// edits is the number of edges each push reweights relative to the
	// stream's previous snapshot; 0 pushes a fresh random graph instead.
	edits int
	ids   bool // external-ID snapshots over a fixed id set
	// routed sends stream traffic through a router in front of the node.
	routed  bool
	clients int
	// reportEvery makes each client GET a report after this many of its
	// pushes.
	reportEvery int
	// warmup pushes run untimed before the window so the retained
	// history is already at its steady-state depth.
	warmup int
	// maxRate bounds the pre-generated pushes per timed second; a client
	// that exhausts them ends the window early.
	maxRate float64
	// snapshotEvery is the node's -snapshot-every (0: daemon default).
	snapshotEvery int
	// residentShare sizes the node's -mem-budget to hold about this
	// share of the streams (0: no budget).
	residentShare float64
	cfg           service.StreamConfig
}

// hotPathConfig is the streaming fast path: shared projections so each
// embedding warm-starts from the last, Woodbury corrections for small
// edits, a 32-deep history window.
var hotPathConfig = service.StreamConfig{
	L: 3, K: 12, ExactCutoff: 1,
	SharedProjections: true, IncrementalUpdates: true,
	SolverTol: 1e-5, MaxHistory: 32,
}

// paperConfig is the paper's default: independent per-instance
// projections, so every push builds its embedding cold. It is also the
// regime in which a rehydrated stream rebuilds bit-identically.
var paperConfig = service.StreamConfig{L: 3, K: 12, ExactCutoff: 1}

var workloads = []workload{
	{name: "edit1", n: 5000, streams: 1, edits: 1, routed: true, clients: 1, reportEvery: 2,
		warmup: 32, maxRate: 100, cfg: hotPathConfig},
	{name: "rewire", n: 5000, streams: 1, edits: 0, clients: 1, reportEvery: 2,
		warmup: 32, maxRate: 8, cfg: hotPathConfig},
	{name: "fleet", n: 2000, streams: 16, edits: 3, ids: true, clients: 2, reportEvery: 3,
		maxRate: 80, snapshotEvery: 8, residentShare: 1.0 / 3, cfg: paperConfig},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// rebaseEvery bounds how many pushes share one fully encoded snapshot:
// later bodies are slices of the base with the changed edges spliced
// in, so memory per pre-built push stays small at n=5000.
const rebaseEvery = 64

// base is one fully encoded snapshot that later snapshots patch.
type base struct {
	edges []graph.Edge // canonical order, weights as encoded
	enc   []byte       // the JSON body
	spans [][2]int     // byte range of each edge's object within enc
}

// change is one edge whose weight differs from its base.
type change struct {
	edge int // index into base.edges
	w    float64
	enc  []byte
}

// snapshot is one pre-built push: its body as byte segments (sent
// without copying) and what the replay needs to rebuild its graph.
type snapshot struct {
	base    *base
	changes []change // sorted by edge index
	body    [][]byte
	size    int
}

// edges returns the snapshot's edge list (positions, not dense ids,
// in external-ID mode).
func (s *snapshot) edges() []graph.Edge {
	out := append([]graph.Edge(nil), s.base.edges...)
	for _, c := range s.changes {
		out[c.edge].W = c.w
	}
	return out
}

// bytes joins the body segments into one request body.
func (s *snapshot) bytes() []byte {
	out := make([]byte, 0, s.size)
	for _, seg := range s.body {
		out = append(out, seg...)
	}
	return out
}

func newSnapshot(b *base, changes []change) *snapshot {
	s := &snapshot{base: b, changes: changes}
	at := 0
	for _, c := range changes {
		s.body = append(s.body, b.enc[at:b.spans[c.edge][0]], c.enc)
		at = b.spans[c.edge][1]
	}
	s.body = append(s.body, b.enc[at:])
	for _, seg := range s.body {
		s.size += len(seg)
	}
	return s
}

// streamData is one stream's pre-built snapshot sequence; snaps[0]
// primes the stream during set-up.
type streamData struct {
	id     string
	n      int
	ids    []string // external ids by position (nil in raw index mode)
	snaps  []*snapshot
	cursor int64 // index of the last snapshot handed out (atomic)
}

// op is one client request: a push to a stream or a report read.
type op struct {
	report bool
	stream int
}

// plan is a run's complete pre-generated input: every stream's
// snapshots, the untimed warm-up pushes and every client's request
// sequence for the window.
type plan struct {
	streams []*streamData
	warm    []op
	clients [][]op
}

// rewind makes every stream's next push its second snapshot again, so
// a second pass over the plan sends the same inputs.
func (p *plan) rewind() {
	for _, sd := range p.streams {
		sd.cursor = 0
	}
}

// generate builds the run's inputs from the seed. Everything a client
// sends in the timed window exists when this returns.
func generate(w workload, seed int64, seconds float64) *plan {
	budget := int(w.maxRate*seconds) + 1
	p := &plan{clients: make([][]op, w.clients)}
	counts := make([]int, w.streams)
	for c := range p.clients {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		var zipf *rand.Zipf
		if w.streams > 1 {
			zipf = rand.NewZipf(rng, 1.1, 1, uint64(w.streams-1))
		}
		pick := func() int {
			if zipf == nil {
				return 0
			}
			return int(zipf.Uint64())
		}
		if c == 0 {
			for k := 0; k < w.warmup; k++ {
				s := pick()
				counts[s]++
				p.warm = append(p.warm, op{stream: s})
			}
		}
		pushes := budget / w.clients
		// Reads poll the streams round-robin, client c taking streams c,
		// c+clients, ..., so each stream is read once per cycle and most
		// reads find their stream hibernated.
		read := c % w.streams
		for k := 1; k <= pushes; k++ {
			s := pick()
			counts[s]++
			p.clients[c] = append(p.clients[c], op{stream: s})
			if w.reportEvery > 0 && k%w.reportEvery == 0 {
				p.clients[c] = append(p.clients[c], op{report: true, stream: read})
				read = (read + w.clients) % w.streams
			}
		}
	}
	for s := 0; s < w.streams; s++ {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(s)))
		sd := &streamData{id: fmt.Sprintf("%s-%02d", w.name, s), n: w.n}
		if w.ids {
			sd.ids = make([]string, w.n)
			for pos, v := range rng.Perm(w.n) {
				sd.ids[pos] = "acct-" + strconv.Itoa(v)
			}
		}
		if w.edits == 0 {
			sd.snaps = freshChain(rng, sd, counts[s]+1)
		} else {
			sd.snaps = editChain(rng, sd, counts[s]+1, w.edits)
		}
		p.streams = append(p.streams, sd)
	}
	return p
}

// randomEdges is the snapshot family: a spanning path over a random
// vertex order plus ~2n random chords (~3n edges), weights in
// [0.5, 1.5).
func randomEdges(rng *rand.Rand, n int) []graph.Edge {
	b := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(perm[i-1], perm[i], 0.5+rng.Float64())
	}
	for k := 0; k < 2*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.SetEdge(i, j, 0.5+rng.Float64())
		}
	}
	return b.MustBuild().Edges()
}

// freshChain pushes an independent random graph every time, so every
// edge changes between consecutive snapshots.
func freshChain(rng *rand.Rand, sd *streamData, count int) []*snapshot {
	out := make([]*snapshot, count)
	for t := range out {
		out[t] = newSnapshot(encodeBase(sd, randomEdges(rng, sd.n)), nil)
	}
	return out
}

// editChain reweights `edits` distinct existing edges by a factor in
// [0.9, 1.1) per snapshot, relative to the previous snapshot.
func editChain(rng *rand.Rand, sd *streamData, count, edits int) []*snapshot {
	cur := randomEdges(rng, sd.n)
	b := encodeBase(sd, cur)
	changed := map[int]change{}
	out := []*snapshot{newSnapshot(b, nil)}
	for t := 1; t < count; t++ {
		if t%rebaseEvery == 0 {
			b = encodeBase(sd, cur)
			changed = map[int]change{}
		}
		picked := map[int]bool{}
		for len(picked) < edits {
			k := rng.Intn(len(cur))
			if picked[k] {
				continue
			}
			picked[k] = true
			cur[k].W *= 0.9 + 0.2*rng.Float64()
			changed[k] = change{edge: k, w: cur[k].W, enc: appendEdge(nil, cur[k])}
		}
		changes := make([]change, 0, len(changed))
		for _, c := range changed {
			changes = append(changes, c)
		}
		sort.Slice(changes, func(i, j int) bool { return changes[i].edge < changes[j].edge })
		out = append(out, newSnapshot(b, changes))
	}
	return out
}

// encodeBase writes the service.Snapshot JSON body for edges, keeping
// each edge's byte range so later snapshots can splice in reweights.
// Floats use the shortest round-tripping form, so the daemon parses
// exactly the weights the replay uses.
func encodeBase(sd *streamData, edges []graph.Edge) *base {
	b := &base{edges: append([]graph.Edge(nil), edges...), spans: make([][2]int, len(edges))}
	buf := strconv.AppendInt([]byte(`{"n":`), int64(sd.n), 10)
	if sd.ids != nil {
		buf = append(buf, `,"ids":[`...)
		for k, id := range sd.ids {
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendQuote(buf, id)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"edges":[`...)
	for k, e := range edges {
		if k > 0 {
			buf = append(buf, ',')
		}
		start := len(buf)
		buf = appendEdge(buf, e)
		b.spans[k] = [2]int{start, len(buf)}
	}
	b.enc = append(buf, "]}"...)
	return b
}

func appendEdge(buf []byte, e graph.Edge) []byte {
	buf = strconv.AppendInt(append(buf, `{"i":`...), int64(e.I), 10)
	buf = strconv.AppendInt(append(buf, `,"j":`...), int64(e.J), 10)
	buf = strconv.AppendFloat(append(buf, `,"w":`...), e.W, 'g', -1, 64)
	return append(buf, '}')
}
