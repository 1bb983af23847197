package fd

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"clio/internal/budget"
	"clio/internal/expr"
	"clio/internal/graph"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// Budget boundaries, pinned at exact equality. budget.Tracker.Charge
// is charge-inclusive: charging up to the cap succeeds and only a
// strict excess errors, and that refused charge is the only budget
// refusal. These tests fail on any off-by-one drift in either
// direction (refusing affordable work, or accepting doomed work).

// withHeadroom returns a context whose row budget has exactly h rows
// left after an unrelated charge of 4 rows.
func withHeadroom(t *testing.T, h int64) context.Context {
	t.Helper()
	ctx := WithBudget(context.Background(), Budget{MaxRows: h + 4})
	if err := budget.FromContext(ctx).Charge(4, 0); err != nil {
		t.Fatal(err)
	}
	return ctx
}

// selfJoinedBase builds A1—A2—B, where A1 and A2 both scan base A,
// over one row of A and one row of B that share no key.
func selfJoinedBase() (*graph.QueryGraph, *relation.Instance) {
	sch := schema.NewDatabase()
	for _, n := range []string{"A", "B"} {
		sch.MustAddRelation(schema.NewRelation(n, schema.Attribute{Name: "k", Type: value.KindInt}))
	}
	in := relation.NewInstance(sch)
	for i, n := range []string{"A", "B"} {
		r := in.NewRelationFor(n)
		r.AddValues(value.Int(int64(i)))
		in.MustAdd(r)
	}
	g := graph.New()
	g.MustAddNode("A1", "A")
	g.MustAddNode("A2", "A")
	g.MustAddNode("B", "B")
	g.MustAddEdge("A1", "A2", expr.Equals("A1.k", "A2.k"))
	g.MustAddEdge("A2", "B", expr.Equals("A2.k", "B.k"))
	return g, in
}

// MaintainRows applies the delta whenever the materialization matches:
// it fits at exactly the headroom it charges, and a delta that does not
// fit fails the edit with the refused charge's error.
func TestMaintainRowsDeltaBoundaryAtHeadroom(t *testing.T) {
	materialize := func(g *graph.QueryGraph, in *relation.Instance) *Materialized {
		t.Helper()
		mat, err := NewMaterialized(context.Background(), g, in)
		if err != nil {
			t.Fatal(err)
		}
		return mat
	}
	fresh := func(g *graph.QueryGraph, in *relation.Instance) *relation.Relation {
		t.Helper()
		want, err := computeUncached(context.Background(), g, in)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}

	t.Run("delta at equality", func(t *testing.T) {
		// One node scans A and the new row joins nothing, so the
		// delta charges exactly that row.
		g, in := disjointPair()
		mat := materialize(g, in)
		a := in.Relation("A")
		a.AddValues(value.Int(99))
		ctx := withHeadroom(t, 1)
		d, mat2, mode, err := MaintainRows(ctx, mat, nil, g, in, "A", a.At(a.Len()-1), false)
		if err != nil || mode != "delta" || mat2 != mat {
			t.Fatalf("delta bound == headroom: mode %q, err %v, kept mat %v; want the delta applied", mode, err, mat2 == mat)
		}
		if used := budget.FromContext(ctx).Rows(); used != 5 {
			t.Fatalf("delta charged %d rows in all, want 5", used)
		}
		requireSameDG(t, d, fresh(g, in))
	})

	t.Run("budget error when both exceed", func(t *testing.T) {
		g, in := selfJoinedBase()
		mat := materialize(g, in)
		tp := in.Relation("A").RemoveAt(0)
		ctx := withHeadroom(t, 0)
		_, mat2, _, err := MaintainRows(ctx, mat, nil, g, in, "A", tp, true)
		var be *BudgetError
		if !errors.As(err, &be) || be.Got != 5 || mat2 != nil {
			t.Fatalf("both bounds > headroom returned %v (mat %v), want a budget error reporting 5 rows", err, mat2)
		}
		if used := budget.FromContext(ctx).Rows(); used != 4 {
			t.Fatalf("refused edit charged %d rows beyond the 4 before it", used-4)
		}
	})
}

// End-to-end charge-inclusivity: learn the exact row charge of a
// deterministic computation, then re-run with MaxRows equal to it
// (must succeed — the cap is inclusive) and one below it (must fail
// with the typed budget error).
func TestBudgetBoundaryModeExactChargeComputes(t *testing.T) {
	prev := SetCacheCapacity(0)
	defer SetCacheCapacity(prev)
	rng := rand.New(rand.NewSource(99))
	g, in := randomTreeCase(rng, 3, 4)

	ctx := WithBudget(context.Background(), Budget{MaxRows: 1 << 40})
	want, err := Compute(ctx, g, in)
	if err != nil {
		t.Fatal(err)
	}
	used := budget.FromContext(ctx).Rows()
	if used == 0 {
		t.Skip("degenerate random case: nothing charged")
	}

	exact := WithBudget(context.Background(), Budget{MaxRows: used})
	got, err := Compute(exact, g, in)
	if err != nil {
		t.Fatalf("budget of exactly the charge (%d rows) failed: %v", used, err)
	}
	if !got.EqualSet(want) {
		t.Fatal("exact-budget result differs from unlimited result")
	}

	under := WithBudget(context.Background(), Budget{MaxRows: used - 1})
	if _, err := Compute(under, g, in); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget one under the charge returned %v, want budget error", err)
	}
}

// disjointPair builds A—B over keys that never match, so building the
// materialization charges exactly Σ|R_n| rows: the singleton subsets
// and nothing else.
func disjointPair() (*graph.QueryGraph, *relation.Instance) {
	sch := schema.NewDatabase()
	for _, n := range []string{"A", "B"} {
		sch.MustAddRelation(schema.NewRelation(n, schema.Attribute{Name: "k", Type: value.KindInt}))
	}
	in := relation.NewInstance(sch)
	for i, n := range []string{"A", "B"} {
		r := in.NewRelationFor(n)
		for k := 0; k < 3; k++ {
			r.AddValues(value.Int(int64(10*i + k)))
		}
		in.MustAdd(r)
	}
	g := graph.New()
	g.MustAddNode("A", "A")
	g.MustAddNode("B", "B")
	g.MustAddEdge("A", "B", expr.Equals("A.k", "B.k"))
	return g, in
}

// A first materialization with no D(G) to seed from rebuilds: it
// charges exactly what fd.Compute charges — here the outer-join
// chain's 7 output rows plus the 7 rows its accumulator retains, 14 in
// all — and nothing for seeding the front from that result. At a cap
// of 14 the rebuild fits exactly; one row short, the refused charge
// fails the edit.
func TestMaintainRowsFirstBuildBoundaryAtHeadroom(t *testing.T) {
	g, in := disjointPair()
	a := in.Relation("A")
	a.AddValues(value.Int(99))
	tp := a.At(a.Len() - 1)
	const est = 14
	ref := WithBudget(context.Background(), Budget{MaxRows: 1 << 40})
	if _, err := Compute(ref, g, in); err != nil {
		t.Fatal(err)
	}
	if used := budget.FromContext(ref).Rows(); used != est {
		t.Fatalf("Compute charged %d rows, want %d", used, est)
	}

	exact := WithBudget(context.Background(), Budget{MaxRows: est})
	_, mat, mode, err := MaintainRows(exact, nil, nil, g, in, "A", tp, false)
	if err != nil {
		t.Fatalf("first build at est == headroom failed: %v", err)
	}
	if mode != "recompute" || mat == nil {
		t.Fatalf("first build maintained via %q (mat %v), want recompute", mode, mat)
	}
	if used := budget.FromContext(exact).Rows(); used != est {
		t.Fatalf("first build charged %d rows, want exactly %d", used, est)
	}

	under := WithBudget(context.Background(), Budget{MaxRows: est - 1})
	_, mat, _, err = MaintainRows(under, nil, nil, g, in, "A", tp, false)
	var be *BudgetError
	if !errors.As(err, &be) || be.Got != est || mat != nil {
		t.Fatalf("first build one row short returned %v (mat %v), want a budget error reporting %d rows", err, mat, est)
	}
}

// A first edit that seeds the front from the caller's D(G) charges
// that D(G)'s rows and bytes once, as a memo hit charges its clone,
// and then the delta's own associations: here the 6 rows of D(G) and
// the inserted row's one association. It fits at exactly that cap; one
// row short, the refused charge fails the edit with no
// materialization.
func TestMaintainRowsSeedBoundaryAtHeadroom(t *testing.T) {
	g, in := disjointPair()
	dg, err := computeUncached(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	a := in.Relation("A")
	a.AddValues(value.Int(99))
	tp := a.At(a.Len() - 1)
	const est = 7
	if dg.Len() != est-1 {
		t.Fatalf("fixture D(G) has %d rows, want %d", dg.Len(), est-1)
	}

	exact := WithBudget(context.Background(), Budget{MaxRows: est})
	d, mat, mode, err := MaintainRows(exact, nil, dg, g, in, "A", tp, false)
	if err != nil || mode != "delta" || mat == nil {
		t.Fatalf("seeded edit at est == headroom: mode %q, mat %v, err %v; want the delta applied", mode, mat, err)
	}
	requireSameDG(t, d, dgOf(t, g, in))
	tr := budget.FromContext(exact)
	wantBytes := approxRelationBytes(dg) + relation.NewTuple(dg.Scheme(), value.Int(99), value.Null).ApproxBytes()
	if tr.Rows() != est || tr.Bytes() != wantBytes {
		t.Fatalf("seeded edit charged %d rows / %d bytes, want %d / %d", tr.Rows(), tr.Bytes(), est, wantBytes)
	}

	under := WithBudget(context.Background(), Budget{MaxRows: est - 1})
	_, mat, _, err = MaintainRows(under, nil, dg, g, in, "A", tp, false)
	var be *BudgetError
	if !errors.As(err, &be) || be.Got != est || mat != nil {
		t.Fatalf("seeded edit one row short returned %v (mat %v), want a budget error reporting %d rows", err, mat, est)
	}
}

// dgOf is g's D(G) over in, computed from scratch.
func dgOf(t *testing.T, g *graph.QueryGraph, in *relation.Instance) *relation.Relation {
	t.Helper()
	d, err := computeUncached(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
