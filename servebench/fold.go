package main

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"clio/internal/obs"
)

// fold turns the program's span trees into per-layer self time. It is
// installed as the exporter downstream of the server's trace ring, so
// it sees every completed root; the traced phase wraps each request in
// a root span named bench.<endpoint>.
//
// A span's self time is the part of its interval that none of its
// children cover. Where children overlap (parallel workers), each
// instant they share is split equally among them, so the self times of
// one tree add up to its root's duration. Roots not named bench.* were
// started inside a request on a detached context (the watch publish
// re-renders the view on one); each is grafted under the deepest span
// of the request whose interval contains it, so its time is counted
// once, inside that request.
type fold struct {
	on atomic.Bool

	mu      sync.Mutex
	pending []*node            // detached roots awaiting their request
	layer   map[string]int64   // layer → self ns
	perSpan map[string]*series // span name → self ms of each instance
	grafted int
}

// node is a finished span reduced to what the fold needs.
type node struct {
	name       string
	start, end int64 // unix ns
	children   []*node
}

func newFold() *fold {
	return &fold{layer: map[string]int64{}, perSpan: map[string]*series{}}
}

// selfP50Spans maps the spans whose per-instance self time the traced
// run reports as a median to the metric that reports it.
var selfP50Spans = map[string]string{
	"workspace.target_view":  "workspace.target_view.self_ms_p50",
	"core.examples_on":       "core.examples_on.self_ms_p50",
	"core.evolve_on_dg":      "core.evolve_on_dg.self_ms_p50",
	"core.select_sufficient": "core.select_sufficient.self_ms_p50",
	"core.data_walk":         "core.data_walk.self_ms_p50",
	"fd.compute":             "fd.compute.self_ms_p50",
	"fd.extend_leaf":         "fd.extend_leaf.self_ms_p50",
	"fd.maintain_rows":       "fd.maintain_rows.self_ms_p50",
	"op.join":                "algebra.join.self_ms_p50",
}

// layerOf maps a span name to its layer: the module prefix, with the
// algebra operators' op.* spans named after their package.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	if l == "op" {
		return "algebra"
	}
	return l
}

func toNode(s *obs.SpanData) *node {
	n := &node{name: s.Name, start: s.Start.UnixNano(), end: s.Start.Add(s.Duration).UnixNano()}
	for _, c := range s.Children {
		n.children = append(n.children, toNode(c))
	}
	return n
}

// ExportRoot implements obs.Exporter.
func (f *fold) ExportRoot(root *obs.SpanData) {
	if f.on.Load() {
		f.exportNode(toNode(root))
	}
}

func (f *fold) exportNode(n *node) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !strings.HasPrefix(n.name, "bench.") {
		f.pending = append(f.pending, n)
		return
	}
	keep := f.pending[:0]
	for _, d := range f.pending {
		if d.start >= n.start && d.end <= n.end {
			host := deepestContaining(n, d)
			host.children = append(host.children, d)
			f.grafted++
		} else {
			keep = append(keep, d)
		}
	}
	f.pending = keep
	f.attribute(n, []seg{{n.start, n.end, 1}})
}

// deepestContaining returns the deepest span of the tree under n whose
// interval contains d's.
func deepestContaining(n, d *node) *node {
	for _, c := range n.children {
		if c.start <= d.start && d.end <= c.end {
			return deepestContaining(c, d)
		}
	}
	return n
}

// seg is a piece of a span's interval the span is charged for, at
// weight w (below 1 where it shares the piece with siblings).
type seg struct {
	a, b int64
	w    float64
}

// attribute charges n with the parts of segs (ascending, disjoint) its
// children do not cover, and hands each covered part down to the
// children covering it. Children are clipped to n's interval.
func (f *fold) attribute(n *node, segs []seg) {
	type edge struct {
		t     int64
		child int
		open  bool
	}
	var edges []edge
	for i, c := range n.children {
		if a, b := max(c.start, n.start), min(c.end, n.end); a < b {
			edges = append(edges, edge{a, i, true}, edge{b, i, false})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	childSegs := make([][]seg, len(n.children))
	var self float64
	var active []int
	e := 0
	advance := func(t int64) {
		for ; e < len(edges) && edges[e].t <= t; e++ {
			active = toggle(active, edges[e].child, edges[e].open)
		}
	}
	for _, s := range segs {
		advance(s.a)
		for at := s.a; at < s.b; {
			next := s.b
			if e < len(edges) && edges[e].t < next {
				next = edges[e].t
			}
			if len(active) == 0 {
				self += s.w * float64(next-at)
			} else {
				w := s.w / float64(len(active))
				for _, c := range active {
					childSegs[c] = appendSeg(childSegs[c], seg{at, next, w})
				}
			}
			at = next
			advance(at)
		}
	}
	ns := int64(self)
	f.layer[layerOf(n.name)] += ns
	if _, ok := selfP50Spans[n.name]; ok {
		if f.perSpan[n.name] == nil {
			f.perSpan[n.name] = newSeries()
		}
		f.perSpan[n.name].add(float64(ns) / 1e6)
	}
	for i, c := range n.children {
		f.attribute(c, childSegs[i])
	}
}

func toggle(active []int, child int, open bool) []int {
	if open {
		return append(active, child)
	}
	for i, c := range active {
		if c == child {
			return append(active[:i], active[i+1:]...)
		}
	}
	return active
}

// appendSeg appends s, merging it into the last segment when they abut
// at the same weight.
func appendSeg(segs []seg, s seg) []seg {
	if k := len(segs) - 1; k >= 0 && segs[k].b == s.a && segs[k].w == s.w {
		segs[k].b = s.b
		return segs
	}
	return append(segs, s)
}

// foldResult is a stopped fold's totals.
type foldResult struct {
	layer   map[string]int64
	perSpan map[string]*series
	grafted int
	// dropped counts detached roots no timed request contained; their
	// time is in no layer.
	dropped int
}

// stop turns the fold off and returns its totals.
func (f *fold) stop() foldResult {
	f.on.Store(false)
	f.mu.Lock()
	defer f.mu.Unlock()
	return foldResult{layer: f.layer, perSpan: f.perSpan, grafted: f.grafted, dropped: len(f.pending)}
}
