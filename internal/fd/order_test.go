package fd

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"clio/internal/expr"
	"clio/internal/graph"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// plannerCase builds a 3-relation chain Small — Mid — Big with sharply
// skewed sizes, inserted Big first, so the smallest-first order
// (Small, Mid, Big) differs from the spanning order, which starts at
// Big.
func plannerCase() (*graph.QueryGraph, *relation.Instance) {
	sch := schema.NewDatabase()
	sizes := map[string]int{"Small": 3, "Mid": 40, "Big": 400}
	for name := range sizes {
		sch.MustAddRelation(schema.NewRelation(name,
			schema.Attribute{Name: "k", Type: value.KindInt},
			schema.Attribute{Name: "v", Type: value.KindInt},
		))
	}
	in := relation.NewInstance(sch)
	for name, n := range sizes {
		r := in.NewRelationFor(name)
		for i := 0; i < n; i++ {
			r.AddValues(value.Int(int64(i%10)), value.Int(int64(i)))
		}
		in.MustAdd(r)
	}
	g := graph.New()
	g.MustAddNode("Big", "Big")
	g.MustAddNode("Mid", "Mid")
	g.MustAddNode("Small", "Small")
	g.MustAddEdge("Big", "Mid", expr.Equals("Big.k", "Mid.k"))
	g.MustAddEdge("Mid", "Small", expr.Equals("Mid.k", "Small.k"))
	return g, in
}

func TestSmallestFirstOrderStartsSmallAndStaysConnected(t *testing.T) {
	g, in := plannerCase()
	if order, _, _ := g.SpanningTreeOrder(); order[0] != "Big" {
		t.Fatalf("spanning order %v does not start at Big; the case cannot tell the orders apart", order)
	}
	shape, ok := smallestFirstShape(g, in)
	if !ok {
		t.Fatal("no order for a connected graph")
	}
	if want := []string{"Small", "Mid", "Big"}; !slices.Equal(shape.order, want) {
		t.Fatalf("order = %v, want %v", shape.order, want)
	}
	// Each node past the first attaches via its recorded edge to a node
	// already in the prefix.
	seen := map[string]bool{shape.order[0]: true}
	for i := 1; i < len(shape.order); i++ {
		e := shape.attach[i]
		other, ok := e.Other(shape.order[i])
		if !ok || !seen[other] {
			t.Errorf("step %d: node %s does not attach to the prefix via %v", i, shape.order[i], e)
		}
		seen[shape.order[i]] = true
	}
	if shape.residual != nil {
		t.Errorf("a tree's plan has residual %v", shape.residual)
	}
}

func TestSmallestFirstOrderDeterministic(t *testing.T) {
	g, in := plannerCase()
	a, _ := smallestFirstShape(g, in)
	b, _ := smallestFirstShape(g, in)
	if !slices.Equal(a.order, b.order) {
		t.Fatalf("orders differ across identical runs: %v vs %v", a.order, b.order)
	}
	// Equal sizes order by name: A first (not C, the first inserted),
	// then its only neighbor C, then B.
	tie := graph.New()
	for _, n := range []string{"C", "A", "B"} {
		tie.MustAddNode(n, n)
	}
	tie.MustAddEdge("C", "A", expr.Equals("C.k", "A.k"))
	tie.MustAddEdge("C", "B", expr.Equals("C.k", "B.k"))
	order, _, ok := tie.SmallestFirstOrder(func(string) int { return 7 })
	if want := []string{"A", "C", "B"}; !ok || !slices.Equal(order, want) {
		t.Errorf("tied order = %v (ok=%v), want %v", order, ok, want)
	}
	// A node no edge reaches leaves no connected order, and so does an
	// empty graph.
	g.MustAddNode("Lone", "Small")
	if _, ok := smallestFirstShape(g, in); ok {
		t.Error("disconnected graph has an order")
	}
	if _, ok := smallestFirstShape(graph.New(), in); ok {
		t.Error("empty graph has an order")
	}
}

// TestPlannerOrderAgreesWithDefault checks the smallest-first order
// computes exactly the same D(G) as the naive reference (the full
// disjunction is order-independent; only intermediates change).
func TestPlannerOrderAgreesWithDefault(t *testing.T) {
	g, in := plannerCase()
	planned, err := FullDisjunctionOuterJoin(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := FullDisjunctionNaive(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	if !planned.EqualSet(naive) {
		t.Fatalf("planned-order D(G) (%d rows) differs from naive (%d rows)", planned.Len(), naive.Len())
	}
}

// Cyclic coverage: the smallest-first order serves every connected
// subset of a cyclic graph and the result matches the naive reference.
func TestPlannerCyclicSubsetsAgree(t *testing.T) {
	sch := schema.NewDatabase()
	for i := 0; i < 3; i++ {
		sch.MustAddRelation(schema.NewRelation(fmt.Sprintf("C%d", i),
			schema.Attribute{Name: "k", Type: value.KindInt},
		))
	}
	in := relation.NewInstance(sch)
	for i := 0; i < 3; i++ {
		r := in.NewRelationFor(fmt.Sprintf("C%d", i))
		for j := 0; j < 4+i; j++ {
			r.AddValues(value.Int(int64(j % 3)))
		}
		in.MustAdd(r)
	}
	g := graph.New()
	for i := 0; i < 3; i++ {
		g.MustAddNode(fmt.Sprintf("C%d", i), fmt.Sprintf("C%d", i))
	}
	g.MustAddEdge("C0", "C1", expr.Equals("C0.k", "C1.k"))
	g.MustAddEdge("C1", "C2", expr.Equals("C1.k", "C2.k"))
	g.MustAddEdge("C2", "C0", expr.Equals("C2.k", "C0.k"))
	got, err := FullDisjunction(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FullDisjunctionNaive(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualSet(want) {
		t.Fatalf("cyclic planned D(G) (%d rows) differs from naive (%d rows)", got.Len(), want.Len())
	}
}
