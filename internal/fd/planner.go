package fd

// The cost-based join-order planner. The budget picker (picker.go)
// routes between whole algorithms from certain lower bounds; this file
// chooses the join ORDER within one algorithm from cheap per-relation
// statistics (relation.Stats: row counts and per-column distinct-value
// estimates, maintained incrementally alongside the relation version
// counter). The estimate model is the classical distinct-value one:
//
//	|L ⋈ R| ≈ |L|·|R| / Π max(d_L(a), d_R(b))
//
// over the equi pairs (a, b) of the connecting edge; an edge with no
// equi conjunct estimates as a cross product, and full outer joins
// widen each step by both inputs' sizes (matched rows plus padding).
//
// Correctness is order-independent — F(J) is a set of inner joins with
// residual selections, and the outer-join chain stays a connected
// spanning traversal whose subsumption sweep fixes any order — so the
// planner only affects intermediate sizes. Ties break on estimate,
// then node name, so the chosen order is deterministic for a given
// instance. Every chosen step carries its estimate into the plan
// (algebra.Join.EstRows), which the operator spans report next to the
// actual row counts — EXPLAIN's est-vs-actual column.

import (
	"context"
	"sync"

	"clio/internal/algebra"
	"clio/internal/graph"
	"clio/internal/obs"
	"clio/internal/relation"
	"clio/internal/schema"
)

var (
	cPlannerPlans     = obs.GetCounter("fd.planner.plans")
	cPlannerReordered = obs.GetCounter("fd.planner.reordered")
)

// estClamp bounds estimates so the float64 model cannot overflow the
// int64 carried into plans and JSON.
const estClamp = int64(1) << 52

// nodeStats is the planner's per-node view of a base relation: row
// count, a qualified-column → distinct-count map, and the node's
// alias-qualified scheme (built without materializing the aliased
// relation, so the base relation's statistics cache is shared).
type nodeStats struct {
	rows   int64
	ndv    map[string]int64
	scheme *relation.Scheme
}

// gatherNodeStats resolves statistics for every node of j against the
// instance. ok is false when a base relation is missing — the caller
// falls back to the plain spanning order and lets the plan's execution
// surface the error.
func gatherNodeStats(j *graph.QueryGraph, in *relation.Instance) (map[string]*nodeStats, bool) {
	out := make(map[string]*nodeStats, j.NodeCount())
	for _, name := range j.Nodes() {
		n, _ := j.Node(name)
		base := in.Relation(n.Base)
		if base == nil {
			return nil, false
		}
		st := base.Stats()
		bs := base.Scheme()
		ns := &nodeStats{rows: int64(st.Rows), ndv: make(map[string]int64, bs.Arity())}
		names := make([]string, bs.Arity())
		for i, qn := range bs.Names() {
			attr := qn
			if ref, err := schema.ParseColumnRef(qn); err == nil {
				attr = ref.Attr
			}
			q := name + "." + attr
			names[i] = q
			ns.ndv[q] = st.DistinctOn(i)
		}
		ns.scheme = relation.NewScheme(names...)
		out[name] = ns
	}
	return out, true
}

// plannedOrder is the outcome of the join-order search for one
// connected (sub)graph: the attachment order, the edge that attaches
// each node past the first, and the estimated output cardinality after
// each join (est[0] is the start relation's row count).
type plannedOrder struct {
	order []string
	edges []graph.Edge
	est   []int64
}

// chooseJoinOrder greedily picks a connected attachment order for the
// (induced, connected) graph j: start from the smallest relation and
// repeatedly attach the frontier node whose join yields the smallest
// estimated output. outer selects the full-outer cost model. ok is
// false when statistics cannot be resolved or j is not connected.
func chooseJoinOrder(j *graph.QueryGraph, in *relation.Instance, outer bool) (*plannedOrder, bool) {
	stats, ok := gatherNodeStats(j, in)
	if !ok {
		return nil, false
	}
	nodes := j.Nodes()
	if len(nodes) == 0 {
		return nil, false
	}
	start := nodes[0]
	for _, n := range nodes[1:] {
		if stats[n].rows < stats[start].rows || (stats[n].rows == stats[start].rows && n < start) {
			start = n
		}
	}
	po := &plannedOrder{
		order: []string{start},
		edges: []graph.Edge{{}},
		est:   []int64{stats[start].rows},
	}
	joined := map[string]bool{start: true}
	curScheme := stats[start].scheme
	ndv := make(map[string]int64, len(stats[start].ndv))
	for c, d := range stats[start].ndv {
		ndv[c] = d
	}
	cur := float64(stats[start].rows)
	for len(po.order) < len(nodes) {
		bestNode := ""
		var bestEdge graph.Edge
		var bestEst float64
		for _, e := range j.Edges() {
			var nb string
			switch {
			case joined[e.A] && !joined[e.B]:
				nb = e.B
			case joined[e.B] && !joined[e.A]:
				nb = e.A
			default:
				continue
			}
			ns := stats[nb]
			lCols, rCols, _ := algebra.SplitEquiConjuncts(e.Pred, curScheme, ns.scheme)
			est := cur * float64(ns.rows)
			for k := range lCols {
				d := ndv[lCols[k]]
				if dr := ns.ndv[rCols[k]]; dr > d {
					d = dr
				}
				if d > 1 {
					est /= float64(d)
				}
			}
			if outer {
				est += cur + float64(ns.rows)
			}
			if est < 1 {
				est = 1
			}
			if bestNode == "" || est < bestEst || (est == bestEst && nb < bestNode) {
				bestNode, bestEdge, bestEst = nb, e, est
			}
		}
		if bestNode == "" {
			return nil, false // disconnected
		}
		joined[bestNode] = true
		po.order = append(po.order, bestNode)
		po.edges = append(po.edges, bestEdge)
		est := int64(bestEst)
		if bestEst >= float64(estClamp) {
			est = estClamp
		}
		po.est = append(po.est, est)
		for c, d := range stats[bestNode].ndv {
			ndv[c] = d
		}
		cur = bestEst
		curScheme = curScheme.Concat(stats[bestNode].scheme)
	}
	return po, true
}

// PlannerOrder is one chosen join order, reported by EXPLAIN: the
// attachment sequence and the planner's estimated output rows after
// each step (actual rows live on the matching operator spans).
type PlannerOrder struct {
	Subset  []string `json:"subset,omitempty"`
	Order   []string `json:"order"`
	EstRows []int64  `json:"est_rows"`
}

// PlannerStats is EXPLAIN's per-base-relation statistics summary.
type PlannerStats struct {
	Rows    int    `json:"rows"`
	Version uint64 `json:"version"`
	// Fresh reports whether the cached statistics describe the
	// relation's current version (they always do immediately after a
	// computation that consulted them; a mutation in between goes
	// stale until the next Stats call folds it in).
	Fresh bool `json:"fresh"`
}

// PlannerBlock is EXPLAIN's planner section: every join order chosen
// during the run plus the statistics they were derived from.
type PlannerBlock struct {
	Orders []PlannerOrder          `json:"orders"`
	Stats  map[string]PlannerStats `json:"stats"`
}

// planRecorder collects the join orders chosen during one computation.
// Safe for concurrent use, since callers may share one context across
// goroutines.
type planRecorder struct {
	mu     sync.Mutex
	orders []PlannerOrder
}

type planRecorderKey struct{}

// withPlanRecorder arms ctx with a recorder; plans chosen under it are
// reported back through the returned collector.
func withPlanRecorder(ctx context.Context) (context.Context, *planRecorder) {
	rec := &planRecorder{}
	return context.WithValue(ctx, planRecorderKey{}, rec), rec
}

// recordPlan notes a chosen order if ctx carries a recorder.
func recordPlan(ctx context.Context, subset []string, po *plannedOrder) {
	rec, _ := ctx.Value(planRecorderKey{}).(*planRecorder)
	if rec == nil {
		return
	}
	rec.mu.Lock()
	rec.orders = append(rec.orders, PlannerOrder{
		Subset:  subset,
		Order:   append([]string(nil), po.order...),
		EstRows: append([]int64(nil), po.est...),
	})
	rec.mu.Unlock()
}

// statsBlock summarizes the instance-resident statistics for the
// graph's base relations, with per-relation freshness.
func statsBlock(g *graph.QueryGraph, in *relation.Instance) map[string]PlannerStats {
	out := map[string]PlannerStats{}
	for _, name := range g.Nodes() {
		n, _ := g.Node(name)
		base := in.Relation(n.Base)
		if base == nil {
			continue
		}
		if _, ok := out[n.Base]; ok {
			continue
		}
		ps := PlannerStats{Rows: base.Len(), Version: base.Version()}
		if st := base.CachedStats(); st != nil && st.Version == base.Version() {
			ps.Fresh = true
		}
		out[n.Base] = ps
	}
	return out
}

// sameOrder reports whether the planner kept the default spanning
// order (used only for the reorder counter).
func sameOrder(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
