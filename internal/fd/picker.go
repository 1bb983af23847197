package fd

// Budget-aware routing. route picks the D(G) algorithm from the graph
// shape (outer-join chain for trees, subgraph enumeration otherwise)
// and uses the remaining budget headroom as a cost bound: a
// computation whose certain lower bound on charged rows already
// exceeds the headroom is refused up front ("abort") with the same
// typed error a doomed run would eventually hit. It is the only
// picker: MaintainRows applies the same headroom test to its delta and
// rebuild bounds inline.
//
// The estimates are true lower bounds, never heuristics: abort must
// only fire when the computation is guaranteed to exceed the budget,
// so an unlimited or generous budget never changes the route.

import (
	"context"

	"clio/internal/budget"
	"clio/internal/graph"
	"clio/internal/relation"
)

// rowHeadroom returns the remaining row headroom of the context's
// budget, or -1 when rows are unlimited.
func rowHeadroom(ctx context.Context) int64 {
	tr := budget.FromContext(ctx)
	if tr == nil {
		return -1
	}
	b := tr.Limits()
	if b.MaxRows <= 0 {
		return -1
	}
	rem := b.MaxRows - tr.Rows()
	if rem < 0 {
		rem = 0
	}
	return rem
}

// estimateRows returns a certain lower bound on the rows any D(G)
// algorithm must charge for g over in.
//
// Tree graphs: the outer-join chain's output contains every row of
// every base relation (matched or null-padded), and the final
// alignment charges each output row, so at least max |R_n| rows are
// charged. Cyclic graphs: the subgraph algorithms pad every full
// association of every connected subset; the singleton subsets alone
// charge |R_n| padded rows per node, so at least sum |R_n| rows are
// charged.
func estimateRows(g *graph.QueryGraph, in *relation.Instance, isTree bool) (int64, error) {
	var max, sum int64
	for _, name := range g.Nodes() {
		n, _ := g.Node(name)
		r, err := in.Aliased(n.Base, n.Base)
		if err != nil {
			return 0, err
		}
		size := int64(r.Len())
		sum += size
		if size > max {
			max = size
		}
	}
	if isTree {
		return max, nil
	}
	return sum, nil
}

// route is the one D(G) routing decision: Compute runs the algorithm
// it names and EXPLAIN reports it, so the two cannot disagree. It
// returns "abort", "outer_join" or "subgraph" (see pickAlgo) together
// with the lower bound an abort is reported against.
func route(ctx context.Context, g *graph.QueryGraph, in *relation.Instance) (algo string, estimate int64, err error) {
	isTree := g.IsTree()
	estimate, err = estimateRows(g, in, isTree)
	if err != nil {
		return "", 0, err
	}
	return pickAlgo(isTree, estimate, rowHeadroom(ctx), budget.FromContext(ctx).SpillEnabled()), estimate, nil
}

// pickAlgo chooses the D(G) algorithm for Compute. estimate is a true
// lower bound on the rows the computation must charge; headroom is the
// remaining row budget (negative = unlimited); spill reports whether
// the budget has a spill directory.
//
//   - "abort": the lower bound already exceeds the headroom, so the
//     computation is guaranteed to fail its budget — refuse before
//     doing any join work. Never chosen under spill: with a spill
//     directory the caps bound resident state, charges are refunded as
//     state moves to disk, and the cumulative lower bound no longer
//     proves failure.
//   - "outer_join": tree query graphs.
//   - "subgraph": every other graph.
//
// Boundary convention: budget.Tracker.Charge is charge-inclusive —
// charging exactly up to the cap succeeds and only a strict excess
// errors — so est == headroom is exactly affordable and every refusal
// comparison here and in MaintainRows is strict.
func pickAlgo(isTree bool, estimate, headroom int64, spill bool) string {
	if !spill && headroom >= 0 && estimate > headroom {
		return "abort"
	}
	if isTree {
		return "outer_join"
	}
	return "subgraph"
}

// overBudget builds the typed error for an aborted computation: the
// same *budget.Error a doomed run would return once estimate rows had
// been charged.
func overBudget(ctx context.Context, estimate int64) error {
	tr := budget.FromContext(ctx)
	return &budget.Error{Limit: "rows", Max: tr.Limits().MaxRows, Got: tr.Rows() + estimate, Spill: tr.SpillState()}
}
