package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"sort"
	"time"

	"clio/internal/obs"
	"clio/internal/workspace"
)

// step is one scripted request against a session.
type step struct {
	op   string         // endpoint: corr, walk, view, rows, ...
	args map[string]any // request body; nil sends none
	body []byte         // args, encoded once
}

func mkStep(op string, args map[string]any) step {
	s := step{op: op, args: args}
	if args != nil {
		var err error
		if s.body, err = json.Marshal(args); err != nil {
			panic(err)
		}
	}
	return s
}

// class groups endpoints into the latency classes the end-to-end
// metrics report.
func class(op string) string {
	switch op {
	case "create":
		return "create"
	case "corr", "walk", "chase", "filter", "accept", "undo":
		return "mutate"
	case "illustration", "view", "examples", "watch":
		return "read"
	case "rows":
		return "edit"
	}
	return "other"
}

// client drives the server's handler in-process: no sockets, one
// request at a time, each timed around ServeHTTP. In the traced phase
// each request runs under a bench.<endpoint> root span.
type client struct {
	h      http.Handler
	traced bool
	t      *tally
	heap   []metrics.Sample
	// step is the position of the next request in the current timed
	// round, -1 outside one.
	step int
}

func newClient(h http.Handler, t *tally) *client {
	return &client{h: h, t: t, heap: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}, step: -1}
}

// send issues one request and records its latency and status.
func (c *client) send(op, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	var span *obs.Span
	if c.traced {
		var ctx context.Context
		ctx, span = obs.StartSpan(req.Context(), "bench."+op)
		req = req.WithContext(ctx)
	}
	start := time.Now()
	c.h.ServeHTTP(rec, req)
	d := time.Since(start)
	span.End()
	metrics.Read(c.heap)
	c.t.observe(op, c.step, d, rec.Code, rec.Body.Bytes(), c.heap[0].Value.Uint64())
	c.t.record(op, rec.Code, body)
	if c.step >= 0 {
		c.step++
	}
	return rec.Code, rec.Body.Bytes()
}

// at names the step of the next request in a timed round, for scripts
// whose rounds do not all send the same requests.
func (c *client) at(k int) {
	if c.step >= 0 {
		c.step = k
	}
}

// create opens a session and returns its ID ("" when creation failed).
func (c *client) create(args map[string]any) (string, []byte) {
	s := mkStep("create", args)
	status, body := c.send("create", "POST", "/api/sessions", s.body)
	if status != http.StatusOK {
		return "", body
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return "", body
	}
	return out.ID, body
}

// do runs one step on session id.
func (c *client) do(id string, s step) (int, []byte) {
	path := "/api/sessions/" + id
	switch class(s.op) {
	case "read":
		return c.send(s.op, "GET", path+"/"+s.op, nil)
	case "other": // delete
		return c.send(s.op, "DELETE", path, nil)
	}
	return c.send(s.op, "POST", path+"/"+s.op, s.body)
}

// sampleCap bounds the samples one series keeps. Past it a series
// keeps a uniform random sample (reservoir sampling), so the
// benchmark's own heap, which heap_live_mb_p95 also sees, stays flat
// however many requests a run makes.
const sampleCap = 4096

// series is one stream of observations: their exact count and sum,
// and a bounded uniform sample for quantiles.
type series struct {
	n   int
	sum float64
	xs  []float64
	rng *rand.Rand
}

func newSeries() *series {
	return &series{rng: rand.New(rand.NewSource(1))}
}

func (s *series) add(x float64) {
	s.n++
	s.sum += x
	if len(s.xs) < sampleCap {
		s.xs = append(s.xs, x)
	} else if j := s.rng.Intn(s.n); j < sampleCap {
		s.xs[j] = x
	}
}

// merge adds o's observations. The merged sample stays uniform when
// both streams are about as long, as the closed-loop clients' are.
func (s *series) merge(o *series) {
	s.n += o.n
	s.sum += o.sum
	s.xs = append(s.xs, o.xs...)
}

func (s *series) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// quantile returns the sample's q-quantile (nearest rank), 0 when
// empty.
func (s *series) quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	xs := append([]float64(nil), s.xs...)
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// tally accumulates one client's timed requests. Each client owns one,
// so recording takes no lock; merge combines them after the phase.
type tally struct {
	lat map[string]*series // class → latency, ms
	// steps[k] is the latency of step k of every round, ms, of class
	// stepClass[k]. A step is the k-th request of a round, as every
	// round sends the same script, unless the script names it (at).
	steps     []*series
	stepClass []string
	rounds    *series // round time, s
	heap      *series // live heap after each request, MiB
	ref       *series // refKernel timings between rounds, ms
	requests  int
	failed    int
	failures  []string // the first few, for the report
	// records are the first journalSamples state-changing requests as
	// the server journals them.
	records []workspace.JournalRecord
}

func newTally() *tally {
	t := &tally{lat: map[string]*series{}, rounds: newSeries(), heap: newSeries(), ref: newSeries()}
	for _, c := range []string{"create", "mutate", "read", "edit", "other"} {
		t.lat[c] = newSeries()
	}
	return t
}

func (t *tally) observe(op string, step int, d time.Duration, status int, body []byte, heap uint64) {
	t.requests++
	t.lat[class(op)].add(ms(d))
	if step >= 0 {
		t.stepSeries(step, class(op)).add(ms(d))
	}
	t.heap.add(float64(heap) / (1 << 20))
	if status != http.StatusOK {
		t.failed++
		if len(t.failures) < 5 {
			msg := string(body)
			if len(msg) > 200 {
				msg = msg[:200]
			}
			t.failures = append(t.failures, fmt.Sprintf("%s: %d %s", op, status, msg))
		}
	}
}

func (t *tally) record(op string, status int, body []byte) {
	if status != http.StatusOK || len(t.records) >= journalSamples {
		return
	}
	switch class(op) {
	case "create":
		t.records = append(t.records, workspace.JournalRecord{Kind: "create", Args: bytes.Clone(body)})
	case "mutate", "edit":
		t.records = append(t.records, workspace.JournalRecord{Kind: "op", Op: op, Args: bytes.Clone(body)})
	}
}

func (t *tally) stepSeries(k int, class string) *series {
	for len(t.steps) <= k {
		t.steps = append(t.steps, newSeries())
		t.stepClass = append(t.stepClass, "")
	}
	t.stepClass[k] = class
	return t.steps[k]
}

// stepQuantile returns the mean over class's steps of each step's
// q-quantile latency, ms, and the samples behind it.
func (t *tally) stepQuantile(class string, q float64) (float64, int) {
	var sum float64
	var steps, n int
	for k, s := range t.steps {
		if t.stepClass[k] == class && s.n > 0 {
			sum += s.quantile(q)
			steps++
			n += s.n
		}
	}
	if steps == 0 {
		return 0, 0
	}
	return sum / float64(steps), n
}

// roundCost is the sum over a round's steps of each step's
// stepQ-quantile latency, ms.
func (t *tally) roundCost() float64 {
	var sum float64
	for _, s := range t.steps {
		if s.n > 0 {
			sum += s.quantile(stepQ)
		}
	}
	return sum
}

func (t *tally) merge(o *tally) {
	for k, v := range o.lat {
		t.lat[k].merge(v)
	}
	for k, v := range o.steps {
		t.stepSeries(k, o.stepClass[k]).merge(v)
	}
	t.rounds.merge(o.rounds)
	t.heap.merge(o.heap)
	t.ref.merge(o.ref)
	t.requests += o.requests
	t.failed += o.failed
	t.failures = append(t.failures, o.failures...)
	t.records = append(t.records, o.records...)
}
