package fd

import (
	"context"
	"math/rand"
	"testing"

	"clio/internal/expr"
	"clio/internal/graph"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// randomCyclicCase builds a random connected cyclic query graph over k
// relations with random data: a random tree plus 1..2 extra edges.
func randomCyclicCase(rng *rand.Rand, k, rows int) (*graph.QueryGraph, *relation.Instance) {
	g, in := randomTreeCase(rng, k, rows)
	// Add extra edges until the graph is cyclic; for k ≥ 3 a tree
	// always has a missing pair, so this terminates.
	names := g.Nodes()
	extra := 1 + rng.Intn(2)
	for added := 0; added < extra; {
		a := names[rng.Intn(len(names))]
		b := names[rng.Intn(len(names))]
		if a == b {
			continue
		}
		if _, dup := g.EdgeBetween(a, b); dup {
			if g.IsTree() {
				continue // keep looking for a cycle-closing edge
			}
			break // already cyclic; saturated pair ends the loop
		}
		g.MustAddEdge(a, b, expr.Equals(a+".k", b+".k"))
		added++
	}
	return g, in
}

// smallTriangle builds a 3-node cyclic graph over tiny relations.
func smallTriangle() (*graph.QueryGraph, *relation.Instance) {
	sch := schema.NewDatabase()
	for _, n := range []string{"A", "B", "C"} {
		sch.MustAddRelation(schema.NewRelation(n,
			schema.Attribute{Name: "k", Type: value.KindInt}))
	}
	in := relation.NewInstance(sch)
	for i, n := range []string{"A", "B", "C"} {
		r := in.NewRelationFor(n)
		r.AddValues(value.Int(int64(i % 2)))
		in.MustAdd(r)
	}
	g := graph.New()
	g.MustAddNode("A", "A")
	g.MustAddNode("B", "B")
	g.MustAddNode("C", "C")
	g.MustAddEdge("A", "B", expr.Equals("A.k", "B.k"))
	g.MustAddEdge("B", "C", expr.Equals("B.k", "C.k"))
	g.MustAddEdge("A", "C", expr.Equals("A.k", "C.k"))
	return g, in
}

// All D(G) algorithms must notice a cancelled context and return its
// error instead of burning CPU to completion.
func TestCancellationStopsAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	g, in := randomCyclicCase(rng, 4, 3)
	tg, tin := randomTreeCase(rng, 4, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name string
		run  func() error
	}{
		{"FullDisjunction", func() error { _, err := FullDisjunction(ctx, g, in); return err }},
		{"FullDisjunctionNaive", func() error { _, err := FullDisjunctionNaive(ctx, g, in); return err }},
		{"FullDisjunctionOuterJoin", func() error { _, err := FullDisjunctionOuterJoin(ctx, tg, tin); return err }},
		{"Compute", func() error { _, err := Compute(ctx, g, in); return err }},
	}
	for _, c := range cases {
		if err := c.run(); err != context.Canceled {
			t.Errorf("%s: err = %v, want context.Canceled", c.name, err)
		}
	}
}
