package fd_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"clio/internal/datagen"
	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/graph"
	"clio/internal/paperdb"
	"clio/internal/relation"
	"clio/internal/value"
)

// roughen adds the shapes front maintenance must get right to every
// base relation of in: duplicate rows, rows with a NULL cell, and — on
// the first relation — an all-NULL row, whose padded association is
// the all-null tuple.
func roughen(rng *rand.Rand, in *relation.Instance) {
	for i, r := range in.Relations() {
		n := r.Len()
		if n == 0 {
			continue
		}
		for k := 0; k < 1+n/8; k++ {
			r.Add(r.At(rng.Intn(n)))
		}
		vals := make([]value.Value, r.Scheme().Arity())
		src := r.At(rng.Intn(n))
		for c := range vals {
			if c != 0 {
				vals[c] = src.At(c)
			}
		}
		r.AddValues(vals...)
		if i == 0 {
			r.AddValues(make([]value.Value, r.Scheme().Arity())...)
		}
	}
}

// randomEdit mutates one base relation the graph reads: a delete of a
// random row, a re-insert of an existing row (a duplicate), or an
// insert of an existing row with one cell nulled.
func randomEdit(rng *rand.Rand, g *graph.QueryGraph, in *relation.Instance) (string, relation.Tuple, bool) {
	names := g.Nodes()
	n, _ := g.Node(names[rng.Intn(len(names))])
	r := in.Relation(n.Base)
	if r.Len() > 1 && rng.Intn(2) == 0 {
		return n.Base, r.RemoveAt(rng.Intn(r.Len())), true
	}
	src := r.At(rng.Intn(r.Len()))
	vals := make([]value.Value, r.Scheme().Arity())
	for c := range vals {
		vals[c] = src.At(c)
	}
	if rng.Intn(2) == 0 {
		vals[rng.Intn(len(vals))] = value.Null
	}
	r.AddValues(vals...)
	return n.Base, r.At(r.Len() - 1), false
}

type materializeCase struct {
	name string
	g    *graph.QueryGraph
	in   *relation.Instance
}

// materializeCases returns the four paper mappings (two of them over a
// roughened instance) and roughened chain, star, cycle and
// two-nodes-over-one-base graphs, generated and roughened from seed.
func materializeCases(seed int64) []materializeCase {
	rng := rand.New(rand.NewSource(seed))
	var cases []materializeCase
	for i, mk := range []func() *graph.QueryGraph{
		func() *graph.QueryGraph { return paperdb.Section2Mapping().Graph },
		func() *graph.QueryGraph { return paperdb.Example315Mapping().Graph },
		func() *graph.QueryGraph { return paperdb.Figure6G().Graph },
		func() *graph.QueryGraph { return paperdb.FamilyIncomeMapping().Graph },
	} {
		in := paperdb.Instance()
		if i%2 == 1 {
			roughen(rng, in)
		}
		cases = append(cases, materializeCase{fmt.Sprintf("paper-%d", i), mk(), in})
	}
	chain := datagen.Chain(datagen.ChainSpec{Relations: 4, Rows: 40, KeySpace: 15, MatchProb: 0.8, Seed: 3 + seed})
	roughen(rng, chain.Instance)
	cases = append(cases, materializeCase{"chain", chain.Graph, chain.Instance})
	star := datagen.Star(datagen.StarSpec{Dims: 3, FactRows: 40, DimRows: 12, MatchProb: 0.7, Seed: 4 + seed})
	roughen(rng, star.Instance)
	cases = append(cases, materializeCase{"star", star.Graph, star.Instance})
	cycle := datagen.Chain(datagen.ChainSpec{Relations: 4, Rows: 30, KeySpace: 8, MatchProb: 0.9, Seed: 5 + seed})
	cycle.Graph.MustAddEdge("R0", "R3", expr.Equals("R0.k", "R3.k"))
	roughen(rng, cycle.Instance)
	cases = append(cases, materializeCase{"cycle", cycle.Graph, cycle.Instance})
	// Two nodes over one base: R0 joined to two aliases of R1.
	twin := datagen.Chain(datagen.ChainSpec{Relations: 2, Rows: 30, KeySpace: 10, MatchProb: 0.9, Seed: 6 + seed})
	twin.Graph.MustAddNode("R1b", "R1")
	twin.Graph.MustAddEdge("R0", "R1b", expr.Equals("R0.v", "R1b.k"))
	roughen(rng, twin.Instance)
	cases = append(cases, materializeCase{"two-nodes-one-base", twin.Graph, twin.Instance})
	return cases
}

// The per-edit oracle: a front seeded from fd.Compute and then
// maintained through 30 random row edits — deletes, duplicate
// inserts, and inserts of a copy with one cell NULL — renders, after
// every edit, byte-identically to a sorted FullDisjunction of the
// edited instance, on every case under 12 seeds. Every edit must take
// the delta path.
func TestMaintainRowsMatchesFullDisjunctionPerEdit(t *testing.T) {
	ctx := context.Background()
	for i, c := range materializeCases(0) {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				c := materializeCases(seed)[i]
				rng := rand.New(rand.NewSource(1993 + seed))
				mat, err := fd.NewMaterialized(ctx, c.g, c.in)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 30; step++ {
					base, tp, del := randomEdit(rng, c.g, c.in)
					d, next, mode, err := fd.MaintainRows(ctx, mat, nil, c.g, c.in, base, tp, del)
					if err != nil || mode != "delta" {
						t.Fatalf("seed %d edit %d: maintained via %q: %v", seed, step, mode, err)
					}
					mat = next
					want, err := fd.FullDisjunction(ctx, c.g, c.in)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := d.String(), want.Sorted().String(); got != want {
						t.Fatalf("seed %d edit %d (delete=%v of %s %v): D(G) differs\ngot:\n%s\nwant:\n%s", seed, step, del, base, tp, got, want)
					}
				}
			}
		})
	}
}

// Matches remembers the graph it last accepted by pointer and version,
// so it must notice an edit of that very graph object, and still accept
// another object with the same content.
func TestMaterializedMatchesFollowsGraphEdits(t *testing.T) {
	in := paperdb.Instance()
	g := paperdb.Figure6G().Graph
	m, err := fd.NewMaterialized(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Matches(g) || !m.Matches(g) {
		t.Fatal("a materialization does not match the graph it was built for")
	}
	g.MustAddEdge("Children", "PhoneDir", expr.Equals("Children.mid", "PhoneDir.ID"))
	if m.Matches(g) {
		t.Fatal("Matches still accepts the graph after an edge was added to it")
	}
	if !m.Matches(paperdb.Figure6G().Graph) {
		t.Fatal("Matches refuses another graph with the same content")
	}
}
