// Package fd computes the full disjunction D(G) of a query graph
// (Definitions 3.5–3.11): the minimum union of the full data
// associations of every induced connected subgraph of G. D(G) is the
// set of data associations a mapping query ranges over, so this is
// the engine room of the whole system.
//
// Three algorithms are provided:
//
//   - FullDisjunctionNaive: literally Definition 3.5 — cross product
//     plus selection per subgraph. Reference implementation for tests.
//   - FullDisjunction: joins along each connected subgraph (hash joins
//     on the edge predicates), then one minimum union. Exact for any
//     connected query graph; exponential in node count because the
//     number of connected subgraphs is.
//   - FullDisjunctionOuterJoin: a sequence of full outer joins along a
//     BFS spanning order, plus a final subsumption sweep. The fast
//     path for tree query graphs, which is what Clio's data walks and
//     chases construct (benchmark E1 quantifies the gap).
package fd

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"clio/internal/algebra"
	"clio/internal/budget"
	"clio/internal/expr"
	"clio/internal/fault"
	"clio/internal/graph"
	"clio/internal/obs"
	"clio/internal/relation"
)

// Instrumentation (all no-ops unless obs.SetEnabled(true)).
var (
	cComputeCalls = obs.GetCounter("fd.compute.calls")
	cSubsets      = obs.GetCounter("fd.subgraph.subsets")
	cPadded       = obs.GetCounter("fd.tuples.padded")
	hComputeNS    = obs.GetHistogram("fd.compute.ns")
)

// Scheme returns the D(G) scheme: the concatenation of every node's
// qualified scheme, in node insertion order.
func Scheme(g *graph.QueryGraph, in *relation.Instance) (*relation.Scheme, error) {
	var s *relation.Scheme
	for _, name := range g.Nodes() {
		n, _ := g.Node(name)
		r, err := in.Aliased(n.Base, n.Name)
		if err != nil {
			return nil, err
		}
		if s == nil {
			s = r.Scheme()
		} else {
			s = s.Concat(r.Scheme())
		}
	}
	if s == nil {
		return nil, fmt.Errorf("fd: empty query graph")
	}
	return s, nil
}

// nodeBlocks returns, for each node name, the positions of its
// attributes within the D(G) scheme.
func nodeBlocks(g *graph.QueryGraph, in *relation.Instance, s *relation.Scheme) (map[string][]int, error) {
	out := map[string][]int{}
	for _, name := range g.Nodes() {
		n, _ := g.Node(name)
		r, err := in.Aliased(n.Base, n.Name)
		if err != nil {
			return nil, err
		}
		out[name] = s.Positions(r.Scheme().Names()...)
	}
	return out, nil
}

// Coverage returns the node names covered by data association d: the
// nodes whose attribute block is not all-null. This inverts
// Definition 3.6 under the paper's assumption that source relations
// contain no all-null tuples.
func Coverage(d relation.Tuple, g *graph.QueryGraph, in *relation.Instance) ([]string, error) {
	blocks, err := nodeBlocks(g, in, d.Scheme())
	if err != nil {
		return nil, err
	}
	var out []string
	for _, name := range g.Nodes() {
		for _, p := range blocks[name] {
			if !d.At(p).IsNull() {
				out = append(out, name)
				break
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// Tag abbreviates a coverage set using the given abbreviation map
// (missing entries fall back to the full name), concatenated in sorted
// order — the paper's "CPPh"-style tags of Figure 8.
func Tag(coverage []string, abbrev map[string]string) string {
	parts := make([]string, len(coverage))
	for i, c := range coverage {
		if a, ok := abbrev[c]; ok {
			parts[i] = a
		} else {
			parts[i] = c
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "")
}

// associationPlan compiles the F(J) plan (Definition 3.5) for the
// subgraph of g induced by subset, which must induce a connected
// subgraph: inner hash joins in smallest-first order (see
// smallestFirstShape), with the cycle edges applied as a residual
// selection.
func associationPlan(g *graph.QueryGraph, subset []string, in *relation.Instance) (algebra.Node, error) {
	shape, ok := smallestFirstShape(g.Induced(subset), in)
	if !ok {
		return nil, fmt.Errorf("fd: subset %v does not induce a connected subgraph", subset)
	}
	return shape.plan(algebra.InnerJoin, nil), nil
}

// planShape is the join skeleton of F(J) over the induced subgraph j:
// a connected attachment order, the edge joining each node onto the
// prefix (attach[0] is unused), and the conjunction of the edges no
// join consumes (the cycle edges; nil for a tree).
type planShape struct {
	j        *graph.QueryGraph
	order    []string
	attach   []graph.Edge
	residual expr.Expr
}

// smallestFirstShape is the shape of F(J) over the induced subgraph j
// along j.SmallestFirstOrder, sized by each node's base row count (0
// for a missing base, which the plan's scan or Scheme then reports).
// D(G) does not depend on join order; starting at the smallest
// relation keeps the intermediates small without per-column
// statistics. ok is false when j is empty or not connected.
func smallestFirstShape(j *graph.QueryGraph, in *relation.Instance) (planShape, bool) {
	order, attach, ok := j.SmallestFirstOrder(func(name string) int {
		n, _ := j.Node(name)
		if r := in.Relation(n.Base); r != nil {
			return r.Len()
		}
		return 0
	})
	if !ok {
		return planShape{}, false
	}
	return newPlanShape(j, order, attach), true
}

// spanningShape is the shape of F(J) for the subgraph of g induced by
// subset along its spanning-tree order. Delta maintenance plans with
// it.
func spanningShape(g *graph.QueryGraph, subset []string) (planShape, error) {
	j := g.Induced(subset)
	order, treeEdges, ok := j.SpanningTreeOrder()
	if !ok {
		return planShape{}, fmt.Errorf("fd: subset %v does not induce a connected subgraph", subset)
	}
	return newPlanShape(j, order, treeEdges), nil
}

// newPlanShape derives the residual of an attachment order over j.
func newPlanShape(j *graph.QueryGraph, order []string, attach []graph.Edge) planShape {
	used := map[string]bool{}
	for _, e := range attach[1:] {
		used[edgeKey(e)] = true
	}
	var residual []expr.Expr
	for _, e := range j.Edges() {
		if !used[edgeKey(e)] {
			residual = append(residual, e.Pred)
		}
	}
	shape := planShape{j: j, order: order, attach: attach}
	if len(residual) > 0 {
		shape.residual = expr.And(residual...)
	}
	return shape
}

// plan builds the join chain of the shape with joins of the given
// kind. A node whose name appears in bind reads from the bound algebra
// node instead of a base-relation scan — how the delta planner
// substitutes singleton-delta and pre-mutation-prefix relations into
// individual occurrences of an edited base.
func (p planShape) plan(kind algebra.JoinKind, bind map[string]algebra.Node) algebra.Node {
	source := func(name string) algebra.Node {
		if b, ok := bind[name]; ok {
			return b
		}
		n, _ := p.j.Node(name)
		return algebra.NewScan(n.Base, n.Name)
	}
	node := source(p.order[0])
	for i := 1; i < len(p.order); i++ {
		node = algebra.Join{Kind: kind, L: node, R: source(p.order[i]), On: p.attach[i].Pred}
	}
	if p.residual != nil {
		node = algebra.Select{Child: node, Pred: p.residual}
	}
	return node
}

// FullAssociations computes F(J) (Definition 3.5) for the subgraph of
// g induced by the given node subset, which must induce a connected
// subgraph. The compiled plan (see associationPlan) is drained under
// the context's budget and cancellation.
func FullAssociations(ctx context.Context, g *graph.QueryGraph, in *relation.Instance, subset []string) (*relation.Relation, error) {
	plan, err := associationPlan(g, subset, in)
	if err != nil {
		return nil, err
	}
	name := "F(" + strings.Join(subset, ",") + ")"
	if sc, ok := plan.(algebra.Scan); ok {
		// Single-node subgraph: share the stored tuples instead of
		// draining a copy (the clone is a slice header, not a deep copy).
		r, err := sc.Eval(in)
		if err != nil {
			return nil, err
		}
		acc := r.Clone()
		acc.Name = name
		return acc, nil
	}
	acc, err := algebra.Collect(ctx, plan, in)
	if err != nil {
		return nil, err
	}
	acc.Name = name
	return acc, nil
}

func edgeKey(e graph.Edge) string {
	a, b := e.A, e.B
	if a > b {
		a, b = b, a
	}
	return a + "\x00" + b + "\x00" + e.Label()
}

// FullDisjunction computes D(G) by enumerating all induced connected
// subgraphs, computing each F(J) with hash joins, padding, and taking
// one minimum union (Definition 3.11). Exact for any connected graph.
// It honors context cancellation between subgraphs.
func FullDisjunction(ctx context.Context, g *graph.QueryGraph, in *relation.Instance) (*relation.Relation, error) {
	if g.NodeCount() == 0 {
		return nil, fmt.Errorf("fd: empty query graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("fd: query graph is not connected")
	}
	return fullDisjunction(ctx, g, in)
}

// fullDisjunction is the subgraph algorithm without FullDisjunction's
// argument checks; Compute routes every non-tree graph here.
func fullDisjunction(ctx context.Context, g *graph.QueryGraph, in *relation.Instance) (*relation.Relation, error) {
	ctx, span := obs.StartSpan(ctx, "fd.full_disjunction")
	defer span.End()
	s, err := Scheme(g, in)
	if err != nil {
		return nil, err
	}
	subsets := g.ConnectedSubsets()
	span.SetInt("subsets", int64(len(subsets)))
	cSubsets.Add(int64(len(subsets)))
	sink := newDGSink(ctx, budget.FromContext(ctx), s)
	defer abortOnPanic(sink)
	for _, sub := range subsets {
		if err := ctx.Err(); err != nil {
			sink.abort()
			return nil, err
		}
		// Stream each F(J) straight into the accumulator: the
		// subgraph's final join output is never materialized on its own.
		plan, err := associationPlan(g, sub, in)
		if err != nil {
			sink.abort()
			return nil, err
		}
		if err := padInto(ctx, plan, in, sink, s); err != nil {
			sink.abort()
			return nil, err
		}
	}
	cPadded.Add(sink.added())
	span.SetInt("padded", sink.added())
	out, err := sink.finalize()
	if err != nil {
		return nil, err
	}
	span.SetInt("tuples", int64(out.Len()))
	return out, nil
}

// padInto runs plan, aligning every batch to the D(G) scheme s with a
// zero-copy remap and feeding the accumulator (which charges what it
// retains). The pipeline is closed in all cases.
func padInto(ctx context.Context, plan algebra.Node, in *relation.Instance, sink dgSink, s *relation.Scheme) error {
	it, err := algebra.Open(ctx, plan, in)
	if err != nil {
		return err
	}
	defer it.Close()
	perm := relation.PadPerm(it.Scheme(), s)
	for {
		b, err := it.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if err := sink.addBatch(b.Remapped(s, perm)); err != nil {
			return err
		}
	}
}

// FullDisjunctionNaive computes D(G) per the letter of Definition 3.5:
// cross products filtered by the conjunction of edge predicates. Only
// usable on tiny inputs; the reference for differential tests.
func FullDisjunctionNaive(ctx context.Context, g *graph.QueryGraph, in *relation.Instance) (*relation.Relation, error) {
	ctx, span := obs.StartSpan(ctx, "fd.naive")
	defer span.End()
	if g.NodeCount() == 0 {
		return nil, fmt.Errorf("fd: empty query graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("fd: query graph is not connected")
	}
	s, err := Scheme(g, in)
	if err != nil {
		return nil, err
	}
	sink := newDGSink(ctx, budget.FromContext(ctx), s)
	defer abortOnPanic(sink)
	for _, sub := range g.ConnectedSubsets() {
		if err := ctx.Err(); err != nil {
			sink.abort()
			return nil, err
		}
		j := g.Induced(sub)
		// Cross product of the subset's relations, filtered by the
		// conjunction of all edge predicates — the letter of the
		// definition. The cross products charge the budget per output
		// batch as they stream, so this is the algorithm where
		// unbounded materialization is refused first.
		var acc algebra.Node
		for _, name := range j.Nodes() {
			n, _ := j.Node(name)
			sc := algebra.NewScan(n.Base, n.Name)
			if acc == nil {
				acc = sc
			} else {
				acc = algebra.Cross{L: acc, R: sc}
			}
		}
		var preds []expr.Expr
		for _, e := range j.Edges() {
			preds = append(preds, e.Pred)
		}
		plan := algebra.Select{Child: acc, Pred: expr.And(preds...)}
		if err := padInto(ctx, plan, in, sink, s); err != nil {
			sink.abort()
			return nil, err
		}
	}
	return sink.finalize()
}

// FullDisjunctionOuterJoin computes D(G) for a tree query graph as a
// sequence of full outer joins along a BFS spanning order, followed by
// a subsumption sweep. It returns an error for non-tree graphs; use
// FullDisjunction there.
func FullDisjunctionOuterJoin(ctx context.Context, g *graph.QueryGraph, in *relation.Instance) (*relation.Relation, error) {
	if !g.IsTree() {
		return nil, fmt.Errorf("fd: outer-join algorithm requires a tree query graph")
	}
	ctx, span := obs.StartSpan(ctx, "fd.outer_join")
	defer span.End()
	span.SetInt("joins", int64(g.NodeCount()-1))
	// Any connected attachment order is valid: the subsumption sweep
	// is order-independent.
	shape, ok := smallestFirstShape(g, in)
	if !ok {
		return nil, fmt.Errorf("fd: query graph is not connected")
	}
	plan := shape.plan(algebra.FullJoin, nil)
	// Align to the canonical D(G) scheme (node insertion order). The
	// final join streams into the alignment, so its output is never
	// materialized in join order.
	s, err := Scheme(g, in)
	if err != nil {
		return nil, err
	}
	sink := newDGSink(ctx, budget.FromContext(ctx), s)
	defer abortOnPanic(sink)
	if err := padInto(ctx, plan, in, sink, s); err != nil {
		sink.abort()
		return nil, err
	}
	out, err := sink.finalize()
	if err != nil {
		return nil, err
	}
	span.SetInt("tuples", int64(out.Len()))
	return out, nil
}

// Compute computes D(G) with the algorithm algoFor names: the
// outer-join sequence for trees, subgraph enumeration otherwise.
// Results are memoized in the D(G) cache when one is configured (see
// SetCacheCapacity); a cache hit does not count as an fd.compute.calls
// computation.
func Compute(ctx context.Context, g *graph.QueryGraph, in *relation.Instance) (*relation.Relation, error) {
	// Refuse before touching anything: computeUncached would do this
	// check too, but a cache hit must also honor cancellation.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := fault.Inject("fd.compute"); err != nil {
		return nil, err
	}
	key, cacheable := cacheKey(g, in)
	if cacheable {
		if d, ok := cacheLookup(key); ok {
			// A hit still materializes a clone of the memoized D(G), so
			// it is charged: the API answers identically (413, not OOM)
			// whether or not the result happens to be cached.
			if err := budget.FromContext(ctx).Charge(int64(d.Len()), approxRelationBytes(d)); err != nil {
				return nil, err
			}
			obs.Note(ctx, "dg_cache", "hit")
			return d, nil
		}
		obs.Note(ctx, "dg_cache", "miss")
	}
	d, err := computeUncached(ctx, g, in)
	if err != nil {
		return nil, err
	}
	if cacheable {
		// Checked store: if a base relation mutated while we computed,
		// the result describes the old content and must not be memoized
		// under the new content's key.
		cacheStoreChecked(key, g, in, d)
	}
	return d, nil
}

// approxRelationBytes sums the tuple footprint estimates of r.
func approxRelationBytes(r *relation.Relation) int64 {
	var n int64
	for _, t := range r.Tuples() {
		n += t.ApproxBytes()
	}
	return n
}

// algoFor names the D(G) algorithm for g's shape: "outer_join" for a
// tree, "subgraph" otherwise. Compute dispatches on it and EXPLAIN
// reports it, so the two cannot disagree. The budget plays no part:
// a computation that cannot fit stops at its first refused charge.
func algoFor(g *graph.QueryGraph) string {
	if g.IsTree() {
		return "outer_join"
	}
	return "subgraph"
}

// computeUncached is Compute without the memo cache.
func computeUncached(ctx context.Context, g *graph.QueryGraph, in *relation.Instance) (*relation.Relation, error) {
	// Refuse to start work on a dead context: small graphs (a single
	// node, say) would otherwise finish without ever reaching one of
	// the per-subset cancellation checks.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "fd.compute")
	defer span.End()
	span.SetInt("nodes", int64(g.NodeCount()))
	cComputeCalls.Inc()
	start := time.Now()
	defer hComputeNS.ObserveSince(start)
	algo := algoFor(g)
	span.SetStr("algo", algo)
	var d *relation.Relation
	var err error
	if algo == "outer_join" {
		d, err = FullDisjunctionOuterJoin(ctx, g, in)
	} else {
		d, err = fullDisjunction(ctx, g, in)
	}
	if err != nil {
		return nil, err
	}
	// Canonical render order: every algorithm sorts identically, so a
	// memoized result and a delta-maintained SubsumeSet front render the
	// same bytes for the same content.
	d.SortByKey()
	return d, nil
}

// Partition groups D(G)'s tuples by coverage, keyed by the sorted
// coverage joined with "+" — the categories D(G, J) of Section 4.2.
// Tuple order within a category follows relation order.
func Partition(d *relation.Relation, g *graph.QueryGraph, in *relation.Instance) (map[string][]relation.Tuple, error) {
	blocks, err := nodeBlocks(g, in, d.Scheme())
	if err != nil {
		return nil, err
	}
	out := map[string][]relation.Tuple{}
	for _, t := range d.Tuples() {
		var cov []string
		for _, name := range g.Nodes() {
			for _, p := range blocks[name] {
				if !t.At(p).IsNull() {
					cov = append(cov, name)
					break
				}
			}
		}
		sort.Strings(cov)
		k := strings.Join(cov, "+")
		out[k] = append(out[k], t)
	}
	return out, nil
}

// CoverageKey renders a sorted node set as a Partition key.
func CoverageKey(nodes []string) string {
	s := append([]string(nil), nodes...)
	sort.Strings(s)
	return strings.Join(s, "+")
}

// CoverageAll computes the coverage of every tuple of a D(G) relation
// in one pass, resolving the node attribute blocks once. Equivalent to
// calling Coverage per tuple, but O(nodes) setup instead of per-tuple,
// and each category's coverage is built once: tuples of one category
// share one slice, which callers must not modify.
func CoverageAll(d *relation.Relation, g *graph.QueryGraph, in *relation.Instance) ([][]string, error) {
	blocks, err := nodeBlocks(g, in, d.Scheme())
	if err != nil {
		return nil, err
	}
	nodes := append([]string(nil), g.Nodes()...)
	sort.Strings(nodes)
	out := make([][]string, d.Len())
	covered := make([]byte, len(nodes)) // per node: 1 when covered
	cats := map[string][]string{}
	for i := 0; i < d.Len(); i++ {
		t := d.At(i)
		for j, name := range nodes {
			covered[j] = 0
			for _, p := range blocks[name] {
				if !t.At(p).IsNull() {
					covered[j] = 1
					break
				}
			}
		}
		cov, ok := cats[string(covered)]
		if !ok {
			for j, name := range nodes {
				if covered[j] == 1 {
					cov = append(cov, name)
				}
			}
			cov = cov[:len(cov):len(cov)] // an append by a caller copies
			cats[string(covered)] = cov
		}
		out[i] = cov
	}
	return out, nil
}
