package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dyngraph/internal/obs"
	"dyngraph/internal/service"
)

// pushRec is one sync push as the client saw it.
type pushRec struct {
	stream, snap int
	reqID        string
	traceID      string
	start        time.Time
	lat          time.Duration
	size         int
	ok           bool
	ack          service.PushResult
	// trace is the node's retained push trace (traced runs only).
	trace *obs.TraceJSON
}

// readRec is one report read.
type readRec struct {
	stream int
	lat    time.Duration
	ok     bool
	body   []byte
}

// phase counts what one phase of a run sent and got back.
type phase struct {
	name                 string
	sent, succeeded, bad int
}

func (p phase) String() string {
	return fmt.Sprintf("phase %-7s sent=%d succeeded=%d failed=%d", p.name, p.sent, p.succeeded, p.bad)
}

// target is where a run's clients send stream traffic.
type target struct {
	hc      *http.Client
	baseURL string // router or node
	// afterPush, when set, runs after every successful push, outside its
	// timing (the traced run fetches the push's trace here).
	afterPush func(*pushRec)
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
}

// push sends one pre-built snapshot synchronously and decodes the ack.
// Latency runs from just before the request is written to the decoded
// ack.
func (t *target) push(ctx context.Context, sd *streamData, snap int, reqID string) *pushRec {
	s := sd.snaps[snap]
	rec := &pushRec{snap: snap, reqID: reqID, size: s.size}
	bufs := net.Buffers(append([][]byte(nil), s.body...))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		t.baseURL+"/v1/streams/"+sd.id+"/snapshots?sync=1", &bufs)
	if err != nil {
		return rec
	}
	req.ContentLength = int64(s.size)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, reqID)
	rec.start = time.Now()
	resp, err := t.hc.Do(req)
	if err != nil {
		rec.lat = time.Since(rec.start)
		return rec
	}
	err = json.NewDecoder(resp.Body).Decode(&rec.ack)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rec.lat = time.Since(rec.start)
	rec.ok = err == nil && resp.StatusCode == http.StatusOK
	if tc, found := obs.ParseTraceHeader(resp.Header); found {
		rec.traceID = tc.TraceID
	}
	return rec
}

// report GETs one stream's report.
func (t *target) report(ctx context.Context, sd *streamData) readRec {
	rec := readRec{}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.baseURL+"/v1/streams/"+sd.id+"/report", nil)
	if err != nil {
		return rec
	}
	start := time.Now()
	resp, err := t.hc.Do(req)
	if err != nil {
		rec.lat = time.Since(start)
		return rec
	}
	rec.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.lat = time.Since(start)
	rec.ok = err == nil && resp.StatusCode == http.StatusOK
	return rec
}

// createStreams registers every stream with the run's config.
func (t *target) createStreams(ctx context.Context, p *plan, cfg service.StreamConfig) error {
	body, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	for _, sd := range p.streams {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, t.baseURL+"/v1/streams/"+sd.id, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.ContentLength = int64(len(body))
		resp, err := t.hc.Do(req)
		if err != nil {
			return fmt.Errorf("creating %s: %w", sd.id, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("creating %s: %s", sd.id, resp.Status)
		}
	}
	return nil
}

// prime sends every stream's first (cold) snapshot.
func (t *target) prime(ctx context.Context, p *plan) error {
	for _, sd := range p.streams {
		if rec := t.push(ctx, sd, 0, "prime-"+sd.id); !rec.ok {
			return fmt.Errorf("priming %s failed", sd.id)
		}
	}
	return nil
}

// pass is what one drive produced.
type pass struct {
	pushes []*pushRec // pushes in the timed window
	reads  []readRec  // report reads in the timed window
	window time.Duration
}

// warm sends the plan's untimed warm-up pushes, so the retained
// history is at its steady-state depth when the window opens.
func (t *target) warm(ctx context.Context, p *plan) []*pushRec {
	var out []*pushRec
	for _, o := range p.warm {
		sd := p.streams[o.stream]
		snap := int(atomic.AddInt64(&sd.cursor, 1))
		rec := t.push(ctx, sd, snap, fmt.Sprintf("warm-%d", snap))
		rec.stream = o.stream
		out = append(out, rec)
	}
	return out
}

// drive is the closed loop: each client walks its op list, sending the
// next request only after the previous one is answered. The window
// closes when `seconds` have passed or a client runs out of inputs.
func (t *target) drive(ctx context.Context, p *plan, seconds float64) pass {
	var out pass
	deadline := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for c, ops := range p.clients {
		wg.Add(1)
		go func(c int, ops []op) {
			defer wg.Done()
			var pushes []*pushRec
			var reads []readRec
			for k, o := range ops {
				if time.Since(start) >= deadline || ctx.Err() != nil {
					break
				}
				sd := p.streams[o.stream]
				if o.report {
					r := t.report(ctx, sd)
					r.stream = o.stream
					reads = append(reads, r)
					continue
				}
				snap := int(atomic.AddInt64(&sd.cursor, 1))
				rec := t.push(ctx, sd, snap, "c"+strconv.Itoa(c)+"-"+strconv.Itoa(k))
				rec.stream = o.stream
				if rec.ok && t.afterPush != nil {
					t.afterPush(rec)
				}
				pushes = append(pushes, rec)
			}
			mu.Lock()
			out.pushes = append(out.pushes, pushes...)
			out.reads = append(out.reads, reads...)
			mu.Unlock()
		}(c, ops)
	}
	wg.Wait()
	out.window = time.Since(start)
	return out
}

// countPushes tallies a phase's pushes.
func countPushes(name string, recs []*pushRec) phase {
	ph := phase{name: name, sent: len(recs)}
	for _, r := range recs {
		if r.ok {
			ph.succeeded++
		} else {
			ph.bad++
		}
	}
	return ph
}

// countReads tallies a phase's report reads.
func countReads(name string, recs []readRec) phase {
	ph := phase{name: name, sent: len(recs)}
	for _, r := range recs {
		if r.ok {
			ph.succeeded++
		} else {
			ph.bad++
		}
	}
	return ph
}
