package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"dyngraph/internal/commute"
	"dyngraph/internal/core"
	"dyngraph/internal/graph"
	"dyngraph/internal/service"
	"dyngraph/internal/solver"
)

// newDetector builds the in-process reference detector for a stream
// config: the same mapping the daemon applies when a stream is created.
func newDetector(c service.StreamConfig) *core.OnlineDetector {
	det := core.NewOnline(core.Config{
		Variant: core.VariantCAD,
		Commute: commute.Config{
			K:                  c.K,
			Seed:               c.Seed,
			SharedProjections:  c.SharedProjections,
			IncrementalUpdates: c.IncrementalUpdates,
			Solver:             solver.Options{Tol: c.SolverTol},
		},
		ExactCutoff: c.ExactCutoff,
	}, c.L)
	det.SetMaxHistory(c.MaxHistory)
	return det
}

// graphOf rebuilds snapshot snap of a stream the way the daemon does:
// a raw index graph, or in external-ID mode resolved onto vt.
func (sd *streamData) graphOf(snap int, vt *graph.VertexTable) (*graph.Graph, error) {
	edges := sd.snaps[snap].edges()
	if sd.ids == nil {
		return graph.FromEdges(sd.n, edges, nil)
	}
	return resolve(sd.ids, edges, vt)
}

// resolve maps an external-ID snapshot onto a stream's vertex table as
// the stream worker does: ids interned in order, edges (which address
// positions in ids) remapped in place onto dense indices, and the graph
// built over every vertex interned so far.
func resolve(ids []string, edges []graph.Edge, vt *graph.VertexTable) (*graph.Graph, error) {
	dense := make([]int, len(ids))
	for i, id := range ids {
		dense[i], _ = vt.Intern(id)
	}
	for k := range edges {
		edges[k].I, edges[k].J = dense[edges[k].I], dense[edges[k].J]
	}
	return graph.FromEdges(vt.Len(), edges, vt.IDs())
}

// table returns a fresh vertex table for an external-ID stream (nil in
// raw index mode).
func (sd *streamData) table() *graph.VertexTable {
	if sd.ids == nil {
		return nil
	}
	return graph.NewVertexTable()
}

// reference is the replay's verdict on a run.
type reference struct {
	reports   map[string][]byte // stream id → canonical report bytes
	badAcks   int               // acks that disagree with the replay
	pushes    int               // detector pushes replayed
	allocsPer float64           // mean heap allocations per detector push (when counted)
}

// replay pushes each stream's acknowledged snapshots, in the arrival
// order the daemon assigned, through an in-process detector with the
// same config. Each sync ack must match the replay's transition report
// and δ; the replay's final report is what every served /report must
// equal byte for byte. A stream whose acked instances are not exactly
// 1..k cannot be replayed and fails the run. Streams replay in
// parallel unless allocations are being counted.
func replay(cfg service.StreamConfig, p *plan, recs []*pushRec, countAllocs bool) (*reference, error) {
	byStream := make([][]*pushRec, len(p.streams))
	for _, r := range recs {
		if r.ok {
			byStream[r.stream] = append(byStream[r.stream], r)
		}
	}
	for s, acked := range byStream {
		sort.Slice(acked, func(i, j int) bool { return acked[i].ack.Instance < acked[j].ack.Instance })
		for k, r := range acked {
			if r.ack.Instance != k+1 {
				return nil, fmt.Errorf("stream %s: acked instance %d where %d was expected", p.streams[s].id, r.ack.Instance, k+1)
			}
		}
	}
	results := make([]streamReplay, len(p.streams))
	workers := runtime.GOMAXPROCS(0)
	if countAllocs {
		workers = 1 // the heap counters are process-wide
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				results[s] = replayStream(cfg, p.streams[s], byStream[s], countAllocs)
			}
		}()
	}
	for s := range p.streams {
		jobs <- s
	}
	close(jobs)
	wg.Wait()

	ref := &reference{reports: map[string][]byte{}}
	var mallocs uint64
	for s, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("stream %s: %w", p.streams[s].id, r.err)
		}
		ref.reports[p.streams[s].id] = r.report
		ref.badAcks += r.badAcks
		ref.pushes += r.pushes
		mallocs += r.mallocs
	}
	if countAllocs && ref.pushes > 0 {
		ref.allocsPer = float64(mallocs) / float64(ref.pushes)
	}
	return ref, nil
}

// streamReplay is one stream's part of the reference.
type streamReplay struct {
	report          []byte
	badAcks, pushes int
	mallocs         uint64
	err             error
}

// replayStream replays the priming snapshot and then acked (sorted by
// instance) through a fresh reference detector.
func replayStream(cfg service.StreamConfig, sd *streamData, acked []*pushRec, countAllocs bool) streamReplay {
	var out streamReplay
	det := newDetector(cfg)
	vt := sd.table()
	for k := 0; k <= len(acked); k++ {
		snap := 0
		if k > 0 {
			snap = acked[k-1].snap
		}
		g, err := sd.graphOf(snap, vt)
		if err != nil {
			out.err = fmt.Errorf("snapshot %d: %w", snap, err)
			return out
		}
		var before, after runtime.MemStats
		if countAllocs {
			runtime.ReadMemStats(&before)
		}
		rep, err := det.Push(g)
		if countAllocs {
			runtime.ReadMemStats(&after)
			out.mallocs += after.Mallocs - before.Mallocs
		}
		if err != nil {
			out.err = fmt.Errorf("snapshot %d: %w", snap, err)
			return out
		}
		out.pushes++
		if vt != nil {
			if out.err = det.SetVertexIDs(vt.IDs()); out.err != nil {
				return out
			}
		}
		if k > 0 && !ackMatches(acked[k-1].ack, rep, det.Delta()) {
			out.badAcks++
		}
	}
	var buf bytes.Buffer
	out.err = core.WriteReportJSON(&buf, det.Report())
	out.report = buf.Bytes()
	return out
}

// ackMatches compares a sync ack with the replay's push result.
func ackMatches(ack service.PushResult, rep *core.TransitionReport, delta float64) bool {
	if ack.Delta != delta || (ack.Report == nil) != (rep == nil) {
		return false
	}
	if rep == nil {
		return true
	}
	got, err1 := json.Marshal(ack.Report)
	want, err2 := json.Marshal(rep.JSON())
	return err1 == nil && err2 == nil && bytes.Equal(got, want)
}

// gateReads compares every successful report read with the replay's
// report for its stream, byte for byte, and returns how many differ
// along with the last report served per stream.
func gateReads(p *plan, ref *reference, reads []readRec) (bad int, served map[string][]byte) {
	served = map[string][]byte{}
	for _, rd := range reads {
		if !rd.ok {
			continue
		}
		id := p.streams[rd.stream].id
		served[id] = rd.body
		if !bytes.Equal(rd.body, ref.reports[id]) {
			bad++
		}
	}
	return bad, served
}
