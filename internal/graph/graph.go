// Package graph implements the paper's query graphs (Definition 3.3):
// undirected graphs whose nodes are (possibly aliased) source relation
// names and whose edges are labeled with conjunctions of join
// predicates. The package provides the combinatorial machinery the
// full disjunction needs — enumeration of induced connected subgraphs
// (the coverage categories of D(G)) — plus graph union (for data
// walks), spanning trees, and path utilities.
package graph

import (
	"fmt"
	"sort"
	"strings"

	"clio/internal/expr"
)

// Node is a query-graph node: a relation occurrence. Name is the
// occurrence name (alias) used to qualify attributes; Base is the
// stored relation it reads.
type Node struct {
	Name string
	Base string
}

// Edge is an undirected labeled edge between two node names. Pred is a
// conjunction of join predicates over the two nodes' attributes; join
// predicates are strong (paper §3), which callers should verify with
// expr.IsStrong when constructing edges from user input.
type Edge struct {
	A, B string
	Pred expr.Expr
}

// Other returns the endpoint that is not n; ok is false if n is not an
// endpoint.
func (e Edge) Other(n string) (string, bool) {
	switch n {
	case e.A:
		return e.B, true
	case e.B:
		return e.A, true
	}
	return "", false
}

// Label returns the edge predicate rendered as text.
func (e Edge) Label() string { return e.Pred.String() }

// sameEndpoints reports whether e connects the same unordered pair as
// (a, b).
func (e Edge) sameEndpoints(a, b string) bool {
	return e.A == a && e.B == b || e.A == b && e.B == a
}

// QueryGraph is an undirected, labeled graph over relation
// occurrences. At most one edge exists per node pair; adding another
// conjoins the predicates (an edge is *labeled by a conjunction*).
type QueryGraph struct {
	nodes map[string]Node
	order []string
	edges []Edge
	// version counts mutations (AddNode, AddEdge), so a consumer can
	// tell the graph it derived state from is unchanged.
	version uint64
}

// New creates an empty query graph.
func New() *QueryGraph {
	return &QueryGraph{nodes: map[string]Node{}}
}

// AddNode adds a relation occurrence; adding an existing name with the
// same base is a no-op, a different base is an error.
func (g *QueryGraph) AddNode(name, base string) error {
	if n, ok := g.nodes[name]; ok {
		if n.Base != base {
			return fmt.Errorf("graph: node %q already bound to base %q", name, n.Base)
		}
		return nil
	}
	g.nodes[name] = Node{Name: name, Base: base}
	g.order = append(g.order, name)
	g.version++
	return nil
}

// MustAddNode is AddNode that panics on error.
func (g *QueryGraph) MustAddNode(name, base string) {
	if err := g.AddNode(name, base); err != nil {
		panic(err)
	}
}

// AddEdge adds a labeled edge between existing nodes. If an edge
// already joins the pair, the predicates are conjoined. Self-loops are
// rejected.
func (g *QueryGraph) AddEdge(a, b string, pred expr.Expr) error {
	if a == b {
		return fmt.Errorf("graph: self-loop on %q", a)
	}
	if _, ok := g.nodes[a]; !ok {
		return fmt.Errorf("graph: edge endpoint %q not in graph", a)
	}
	if _, ok := g.nodes[b]; !ok {
		return fmt.Errorf("graph: edge endpoint %q not in graph", b)
	}
	g.version++
	for i, e := range g.edges {
		if e.sameEndpoints(a, b) {
			g.edges[i].Pred = expr.And(e.Pred, pred)
			return nil
		}
	}
	g.edges = append(g.edges, Edge{A: a, B: b, Pred: pred})
	return nil
}

// Version returns the graph's mutation counter: equal versions of the
// same graph object imply identical nodes and edges.
func (g *QueryGraph) Version() uint64 { return g.version }

// MustAddEdge is AddEdge that panics on error.
func (g *QueryGraph) MustAddEdge(a, b string, pred expr.Expr) {
	if err := g.AddEdge(a, b, pred); err != nil {
		panic(err)
	}
}

// HasNode reports whether the named occurrence is in the graph.
func (g *QueryGraph) HasNode(name string) bool { _, ok := g.nodes[name]; return ok }

// Node returns the named node and whether it exists.
func (g *QueryGraph) Node(name string) (Node, bool) { n, ok := g.nodes[name]; return n, ok }

// Nodes returns node names in insertion order.
func (g *QueryGraph) Nodes() []string {
	out := make([]string, len(g.order))
	copy(out, g.order)
	return out
}

// NodeCount returns the number of nodes.
func (g *QueryGraph) NodeCount() int { return len(g.order) }

// Edges returns the edges. Callers must not mutate the slice.
func (g *QueryGraph) Edges() []Edge { return g.edges }

// EdgeBetween returns the edge joining a and b, if any.
func (g *QueryGraph) EdgeBetween(a, b string) (Edge, bool) {
	for _, e := range g.edges {
		if e.sameEndpoints(a, b) {
			return e, true
		}
	}
	return Edge{}, false
}

// Neighbors returns the neighbor names of n in deterministic order.
func (g *QueryGraph) Neighbors(n string) []string {
	var out []string
	for _, e := range g.edges {
		if o, ok := e.Other(n); ok {
			out = append(out, o)
		}
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy (edges share predicate ASTs, which are
// immutable).
func (g *QueryGraph) Clone() *QueryGraph {
	out := New()
	for _, n := range g.order {
		out.nodes[n] = g.nodes[n]
	}
	out.order = append([]string(nil), g.order...)
	out.edges = append([]Edge(nil), g.edges...)
	return out
}

// Connected reports whether the graph is connected (the paper requires
// query graphs to be connected). The empty graph is connected.
func (g *QueryGraph) Connected() bool {
	if len(g.order) <= 1 {
		return true
	}
	seen := map[string]bool{g.order[0]: true}
	stack := []string{g.order[0]}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, o := range g.Neighbors(n) {
			if !seen[o] {
				seen[o] = true
				stack = append(stack, o)
			}
		}
	}
	return len(seen) == len(g.order)
}

// IsTree reports whether the graph is connected with |E| = |N| - 1.
// Walks and chases only ever extend trees by paths or single edges, so
// Clio's query graphs are trees in practice; the full disjunction has
// a fast path for them.
func (g *QueryGraph) IsTree() bool {
	return len(g.order) > 0 && len(g.edges) == len(g.order)-1 && g.Connected()
}

// Induced returns the subgraph induced by the given node names:
// those nodes and every edge with both endpoints among them.
func (g *QueryGraph) Induced(names []string) *QueryGraph {
	keep := map[string]bool{}
	for _, n := range names {
		keep[n] = true
	}
	out := New()
	for _, n := range g.order {
		if keep[n] {
			out.MustAddNode(n, g.nodes[n].Base)
		}
	}
	for _, e := range g.edges {
		if keep[e.A] && keep[e.B] {
			out.edges = append(out.edges, e)
		}
	}
	return out
}

// Union merges g and h: union of nodes and union of edges (the walk
// operator's G ∪ G', Section 5.1). Shared nodes must have the same
// base; shared edges must carry the same label.
func (g *QueryGraph) Union(h *QueryGraph) (*QueryGraph, error) {
	out := g.Clone()
	for _, n := range h.order {
		if err := out.AddNode(n, h.nodes[n].Base); err != nil {
			return nil, err
		}
	}
	for _, e := range h.edges {
		if prev, ok := out.EdgeBetween(e.A, e.B); ok {
			if prev.Label() != e.Label() {
				return nil, fmt.Errorf("graph: union relabels edge %s—%s (%q vs %q)",
					e.A, e.B, prev.Label(), e.Label())
			}
			continue
		}
		out.edges = append(out.edges, e)
	}
	return out, nil
}

// ConnectedSubsets enumerates the node sets of every induced,
// connected, non-empty subgraph, each sorted, in deterministic order.
// This is the category index of D(G) (Definition 3.6). The number of
// such subsets can be exponential in the node count — callers working
// with large non-tree graphs should bound node count upstream.
func (g *QueryGraph) ConnectedSubsets() [][]string {
	names := append([]string(nil), g.order...)
	sort.Strings(names)
	pos := make(map[string]int, len(names))
	for i, n := range names {
		pos[n] = i
	}
	adj := make([][]int, len(names))
	for _, e := range g.edges {
		a, b := pos[e.A], pos[e.B]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}

	var out [][]string
	emit := func(set []int) {
		s := make([]string, len(set))
		for i, ix := range set {
			s[i] = names[ix]
		}
		sort.Strings(s)
		out = append(out, s)
	}

	// For each root r, enumerate connected sets whose minimum element
	// is r. Each extension candidate is either taken or permanently
	// forbidden, which yields each set exactly once.
	var rec func(set []int, ext []int, forbidden []bool)
	rec = func(set []int, ext []int, forbidden []bool) {
		emit(set)
		for i, u := range ext {
			// Forbid the candidates we skipped before u.
			f2 := append([]bool(nil), forbidden...)
			for _, v := range ext[:i] {
				f2[v] = true
			}
			f2[u] = true
			// New extension: remaining candidates plus u's unseen
			// neighbors.
			var ext2 []int
			ext2 = append(ext2, ext[i+1:]...)
			inExt := map[int]bool{}
			for _, v := range ext2 {
				inExt[v] = true
			}
			for _, w := range adj[u] {
				if !f2[w] && !inExt[w] && !contains(set, w) {
					ext2 = append(ext2, w)
					inExt[w] = true
				}
			}
			set2 := append(append([]int(nil), set...), u)
			rec(set2, ext2, f2)
		}
	}

	for r := range names {
		forbidden := make([]bool, len(names))
		for i := 0; i < r; i++ {
			forbidden[i] = true
		}
		forbidden[r] = true
		var ext []int
		for _, w := range adj[r] {
			if !forbidden[w] {
				ext = append(ext, w)
			}
		}
		sort.Ints(ext)
		ext = dedupInts(ext)
		rec([]int{r}, ext, forbidden)
	}

	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return strings.Join(out[i], ",") < strings.Join(out[j], ",")
	})
	return out
}

// ConnectedSubsetsNaive enumerates induced connected subsets by
// testing all 2^n subsets; the reference implementation for
// differential tests. It panics beyond 20 nodes.
func (g *QueryGraph) ConnectedSubsetsNaive() [][]string {
	names := append([]string(nil), g.order...)
	sort.Strings(names)
	n := len(names)
	if n > 20 {
		panic("graph: ConnectedSubsetsNaive beyond 20 nodes")
	}
	var out [][]string
	for mask := 1; mask < 1<<n; mask++ {
		var sub []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, names[i])
			}
		}
		if g.Induced(sub).Connected() {
			out = append(out, sub)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return strings.Join(out[i], ",") < strings.Join(out[j], ",")
	})
	return out
}

// SpanningTreeOrder returns the nodes in a BFS order from the first
// node, paired with, for each non-root node, the tree edge that
// connects it to an earlier node. It returns ok=false if the graph is
// not connected or is empty.
func (g *QueryGraph) SpanningTreeOrder() (order []string, treeEdge []Edge, ok bool) {
	if len(g.order) == 0 {
		return nil, nil, false
	}
	root := g.order[0]
	seen := map[string]bool{root: true}
	order = []string{root}
	treeEdge = []Edge{{}}
	queue := []string{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, o := range g.Neighbors(n) {
			if seen[o] {
				continue
			}
			seen[o] = true
			e, _ := g.EdgeBetween(n, o)
			order = append(order, o)
			treeEdge = append(treeEdge, e)
			queue = append(queue, o)
		}
	}
	if len(order) != len(g.order) {
		return nil, nil, false
	}
	return order, treeEdge, true
}

// SmallestFirstOrder returns a connected attachment order that starts
// at the node of least size and then repeatedly attaches the node of
// least size adjacent to those already ordered, breaking ties by node
// name. attach[i] is the edge joining order[i] to an earlier node (the
// first such edge in edge order; attach[0] is unused). size is called
// once per node. It returns ok=false if the graph is not connected or
// is empty.
func (g *QueryGraph) SmallestFirstOrder(size func(node string) int) (order []string, attach []Edge, ok bool) {
	if len(g.order) == 0 {
		return nil, nil, false
	}
	sizes := make(map[string]int, len(g.order))
	for _, n := range g.order {
		sizes[n] = size(n)
	}
	less := func(a, b string) bool {
		return sizes[a] < sizes[b] || sizes[a] == sizes[b] && a < b
	}
	start := g.order[0]
	for _, n := range g.order[1:] {
		if less(n, start) {
			start = n
		}
	}
	placed := map[string]bool{start: true}
	order = []string{start}
	attach = []Edge{{}}
	for len(order) < len(g.order) {
		next, via := "", Edge{}
		for _, e := range g.edges {
			n := e.B
			switch {
			case placed[e.A] && !placed[e.B]:
			case placed[e.B] && !placed[e.A]:
				n = e.A
			default:
				continue
			}
			if next == "" || less(n, next) {
				next, via = n, e
			}
		}
		if next == "" {
			return nil, nil, false
		}
		placed[next] = true
		order = append(order, next)
		attach = append(attach, via)
	}
	return order, attach, true
}

// SimplePaths returns every simple path between from and to with at
// most maxLen edges, as slices of node names (including endpoints).
func (g *QueryGraph) SimplePaths(from, to string, maxLen int) [][]string {
	var out [][]string
	if !g.HasNode(from) || !g.HasNode(to) {
		return nil
	}
	var rec func(path []string, seen map[string]bool)
	rec = func(path []string, seen map[string]bool) {
		last := path[len(path)-1]
		if last == to {
			out = append(out, append([]string(nil), path...))
			return
		}
		if len(path)-1 >= maxLen {
			return
		}
		for _, o := range g.Neighbors(last) {
			if seen[o] {
				continue
			}
			seen[o] = true
			rec(append(path, o), seen)
			delete(seen, o)
		}
	}
	rec([]string{from}, map[string]bool{from: true})
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return strings.Join(out[i], ",") < strings.Join(out[j], ",")
	})
	return out
}

// String renders nodes and labeled edges, one per line.
func (g *QueryGraph) String() string {
	var b strings.Builder
	b.WriteString("nodes: ")
	b.WriteString(strings.Join(g.order, ", "))
	b.WriteByte('\n')
	for _, e := range g.edges {
		fmt.Fprintf(&b, "  %s -- %s [%s]\n", e.A, e.B, e.Label())
	}
	return b.String()
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}
