package fd

import (
	"context"
	"testing"

	"clio/internal/expr"
	"clio/internal/fault"
	"clio/internal/graph"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// extendFixture builds a deterministic two-node case: graph {A} and
// its extension {A—B}, with B's rows fanned out (duplicate keys and a
// key A lacks).
func extendFixture(t *testing.T) (gA, gAB *graph.QueryGraph, in *relation.Instance) {
	t.Helper()
	sch := schema.NewDatabase()
	for _, n := range []string{"A", "B"} {
		sch.MustAddRelation(schema.NewRelation(n, schema.Attribute{Name: "k", Type: value.KindInt}))
	}
	in = relation.NewInstance(sch)
	a := in.NewRelationFor("A")
	for _, k := range []string{"1", "2", "3", "4"} {
		a.AddRow(k)
	}
	in.MustAdd(a)
	b := in.NewRelationFor("B")
	for _, k := range []string{"1", "1", "2", "2", "3", "5"} {
		b.AddRow(k)
	}
	in.MustAdd(b)
	gA = graph.New()
	gA.MustAddNode("A", "A")
	gAB = gA.Clone()
	gAB.MustAddNode("B", "B")
	gAB.MustAddEdge("A", "B", expr.Equals("A.k", "B.k"))
	return gA, gAB, in
}

// A fault injected at the delta-application entry must degrade
// MaintainRows to a from-scratch rebuild (mode "recompute"), never an
// error or a half-applied materialization.
func TestChaosDeltaFaultFallsBackToRebuildMode(t *testing.T) {
	_, gAB, in := extendFixture(t)
	ctx := context.Background()
	mat, err := NewMaterialized(ctx, gAB, in)
	if err != nil {
		t.Fatal(err)
	}

	fault.Enable(1)
	defer fault.Disable()
	fault.Set("fd.delta.apply", fault.Spec{Mode: fault.ModeError, Times: 1})

	r := in.Relation("A")
	r.AddValues(value.Int(5))
	tp := r.At(r.Len() - 1)
	d, mat2, mode, err := MaintainRows(ctx, mat, nil, gAB, in, "A", tp, false)
	if err != nil {
		t.Fatalf("maintenance did not absorb the delta fault: %v", err)
	}
	if fault.Fired("fd.delta.apply") != 1 {
		t.Fatalf("fault fired %d times, want 1", fault.Fired("fd.delta.apply"))
	}
	if mode != "recompute" {
		t.Fatalf("faulted delta maintained via %q, want recompute", mode)
	}
	want, err := FullDisjunction(ctx, gAB, in)
	if err != nil {
		t.Fatal(err)
	}
	if !d.EqualSet(want) {
		t.Fatal("rebuild after delta fault differs from full recomputation")
	}
	// And the rebuilt materialization keeps working once the fault is gone.
	tp2 := r.RemoveAt(0)
	d2, _, mode2, err := MaintainRows(ctx, mat2, nil, gAB, in, "A", tp2, true)
	if err != nil {
		t.Fatal(err)
	}
	if mode2 != "delta" {
		t.Fatalf("post-fault edit maintained via %q, want delta", mode2)
	}
	want2, err := FullDisjunction(ctx, gAB, in)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.EqualSet(want2) {
		t.Fatal("post-fault delta differs from full recomputation")
	}
}
