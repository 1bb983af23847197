package fd_test

import (
	"context"
	"strings"
	"testing"

	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/paperdb"
)

// sumOpRows walks a span tree and sums the "rows" attributes of the
// algebra operator spans (names prefixed "op.").
func sumOpRows(s *obs.SpanData) int64 {
	var sum int64
	if strings.HasPrefix(s.Name, "op.") {
		if v, ok := obs.AttrMap(s)["rows"].(int64); ok {
			sum += v
		}
	}
	for _, c := range s.Children {
		sum += sumOpRows(c)
	}
	return sum
}

// TestExplainFigure8RowsMatchExecution explains the Figure-8 D(G) and
// checks the per-operator rows in the returned tree sum to exactly
// what an independently traced fd.Compute execution reports.
func TestExplainFigure8RowsMatchExecution(t *testing.T) {
	col := withCollector(t)
	prevCap := fd.SetCacheCapacity(8)
	fd.InvalidateCache()
	t.Cleanup(func() {
		fd.SetCacheCapacity(prevCap)
		fd.InvalidateCache()
	})
	m := paperdb.Figure6G()
	in := paperdb.Instance()

	// Reference execution: trace a real Compute run under a root span
	// so the operator spans are emitted.
	ctx, span := obs.StartSpan(context.Background(), "test.ref")
	dg, err := fd.Compute(ctx, m.Graph, in)
	if err != nil {
		t.Fatal(err)
	}
	span.End()
	roots := col.Roots()
	if len(roots) != 1 {
		t.Fatalf("got %d reference roots, want 1", len(roots))
	}
	wantRows := sumOpRows(roots[0])
	if wantRows == 0 {
		t.Fatal("reference execution recorded no operator rows")
	}

	res, err := fd.ExplainCompute(context.Background(), m.Graph, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algo != "outer_join" {
		t.Errorf("algo = %q, want outer_join", res.Algo)
	}
	if res.Cache != "hit" {
		t.Errorf("cache = %q, want hit (Compute above stored it)", res.Cache)
	}
	if !res.IsTree || res.Nodes != 3 {
		t.Errorf("is_tree/nodes = %v/%d, want true/3", res.IsTree, res.Nodes)
	}
	if res.Tuples != dg.Len() {
		t.Errorf("tuples = %d, want %d", res.Tuples, dg.Len())
	}
	if res.Root == nil || res.Root.Name != "fd.compute" {
		t.Fatalf("explain root = %+v, want fd.compute span", res.Root)
	}
	if got := sumOpRows(res.Root); got != wantRows {
		t.Errorf("explain operator rows sum = %d, want %d", got, wantRows)
	}

	// On a cold cache the same explain reports a miss and warms it.
	fd.InvalidateCache()
	res2, err := fd.ExplainCompute(context.Background(), m.Graph, in)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cache != "miss" {
		t.Errorf("cold cache = %q, want miss", res2.Cache)
	}
	res3, err := fd.ExplainCompute(context.Background(), m.Graph, in)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Cache != "hit" {
		t.Errorf("explain did not warm the cache: %q, want hit", res3.Cache)
	}

	// Cyclic case: closing the triangle Children—Parents—PhoneDir puts a
	// residual Select on the full subset's plan, and its operator span
	// must be reported like every other operator.
	cyc := m.Graph.Clone()
	cyc.MustAddEdge("Children", "PhoneDir", expr.Equals("Children.mid", "PhoneDir.ID"))
	fd.InvalidateCache()
	ctx, span = obs.StartSpan(context.Background(), "test.ref.cyclic")
	if _, err := fd.Compute(ctx, cyc, in); err != nil {
		t.Fatal(err)
	}
	span.End()
	roots = col.Roots()
	ref := roots[len(roots)-1]
	if rows, ok := spanRows(ref, "op.select"); !ok || rows == 0 {
		t.Fatalf("traced cyclic Compute reported op.select rows %d (found %v), want some", rows, ok)
	}
	cres, err := fd.ExplainCompute(context.Background(), cyc, in)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Algo != "subgraph" {
		t.Errorf("cyclic algo = %q, want subgraph", cres.Algo)
	}
	if _, ok := spanRows(cres.Root, "op.select"); !ok {
		t.Error("cyclic explain shows no op.select")
	}
	if got, want := sumOpRows(cres.Root), sumOpRows(ref); got != want {
		t.Errorf("cyclic explain operator rows sum = %d, want %d", got, want)
	}
}

// spanRows sums the "rows" attributes of the spans of that name in the
// tree; ok reports whether there is any such span.
func spanRows(s *obs.SpanData, name string) (rows int64, ok bool) {
	if s.Name == name {
		ok = true
		rows, _ = obs.AttrMap(s)["rows"].(int64)
	}
	for _, c := range s.Children {
		r, found := spanRows(c, name)
		rows += r
		ok = ok || found
	}
	return rows, ok
}
