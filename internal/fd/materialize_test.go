package fd_test

import (
	"context"
	"errors"
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

// roughen adds the shapes the one-pass build must get right to every
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

func materializeCases() []materializeCase {
	rng := rand.New(rand.NewSource(16))
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
	chain := datagen.Chain(datagen.ChainSpec{Relations: 4, Rows: 40, KeySpace: 15, MatchProb: 0.8, Seed: 3})
	roughen(rng, chain.Instance)
	cases = append(cases, materializeCase{"chain", chain.Graph, chain.Instance})
	star := datagen.Star(datagen.StarSpec{Dims: 3, FactRows: 40, DimRows: 12, MatchProb: 0.7, Seed: 4})
	roughen(rng, star.Instance)
	cases = append(cases, materializeCase{"star", star.Graph, star.Instance})
	cycle := datagen.Chain(datagen.ChainSpec{Relations: 4, Rows: 30, KeySpace: 8, MatchProb: 0.9, Seed: 5})
	cycle.Graph.MustAddEdge("R0", "R3", expr.Equals("R0.k", "R3.k"))
	roughen(rng, cycle.Instance)
	cases = append(cases, materializeCase{"cycle", cycle.Graph, cycle.Instance})
	// Two nodes over one base: R0 joined to two aliases of R1.
	twin := datagen.Chain(datagen.ChainSpec{Relations: 2, Rows: 30, KeySpace: 10, MatchProb: 0.9, Seed: 6})
	twin.Graph.MustAddNode("R1b", "R1")
	twin.Graph.MustAddEdge("R0", "R1b", expr.Equals("R0.v", "R1b.k"))
	roughen(rng, twin.Instance)
	cases = append(cases, materializeCase{"two-nodes-one-base", twin.Graph, twin.Instance})
	return cases
}

// The one-pass build equals per-tuple Insert over the same drained
// associations entry for entry — tuple, count, maximal flag, live
// order, non-null tally — renders the same Rel() bytes, and charges
// the budget the same rows and bytes. Both then take one random
// sequence of row edits through ApplyRow and stay equal.
func TestNewMaterializedMatchesPerTupleInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	for _, c := range materializeCases() {
		t.Run(c.name, func(t *testing.T) {
			bctx := fd.WithBudget(context.Background(), fd.Budget{MaxRows: 1 << 40})
			bulk, err := fd.NewMaterialized(bctx, c.g, c.in)
			if err != nil {
				t.Fatal(err)
			}
			rctx := fd.WithBudget(context.Background(), fd.Budget{MaxRows: 1 << 40})
			ref, err := fd.NewMaterializedByInsert(rctx, c.g, c.in)
			if err != nil {
				t.Fatal(err)
			}
			br, bb := fd.BudgetUsed(bctx)
			rr, rb := fd.BudgetUsed(rctx)
			if br != rr || bb != rb {
				t.Fatalf("build charged %d rows / %d bytes, reference %d / %d", br, bb, rr, rb)
			}
			// Under a cap both abort at the same association, having
			// charged the same bytes.
			capped := fd.Budget{MaxRows: rr / 2}
			bctx, rctx = fd.WithBudget(context.Background(), capped), fd.WithBudget(context.Background(), capped)
			_, berr := fd.NewMaterialized(bctx, c.g, c.in)
			_, rerr := fd.NewMaterializedByInsert(rctx, c.g, c.in)
			br, bb = fd.BudgetUsed(bctx)
			rr, rb = fd.BudgetUsed(rctx)
			if !errors.Is(berr, fd.ErrBudgetExceeded) || !errors.Is(rerr, fd.ErrBudgetExceeded) || br != rr || bb != rb {
				t.Fatalf("capped build: %v after %d rows / %d bytes, reference %v after %d / %d", berr, br, bb, rerr, rr, rb)
			}
			check := func(when string) {
				t.Helper()
				if got, want := bulk.State(), ref.State(); got != want {
					t.Fatalf("%s: state differs\ngot:\n%s\nwant:\n%s", when, got, want)
				}
				if got, want := bulk.Rel().String(), ref.Rel().String(); got != want {
					t.Fatalf("%s: Rel differs\ngot:\n%s\nwant:\n%s", when, got, want)
				}
			}
			check("build")
			ctx := context.Background()
			for step := 0; step < 10; step++ {
				base, tp, del := randomEdit(rng, c.g, c.in)
				if err := bulk.ApplyRow(ctx, c.g, c.in, base, tp, del); err != nil {
					t.Fatal(err)
				}
				if err := ref.ApplyRow(ctx, c.g, c.in, base, tp, del); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("edit %d", step))
			}
			want, err := fd.FullDisjunction(ctx, c.g, c.in)
			if err != nil {
				t.Fatal(err)
			}
			if !bulk.Rel().EqualSet(want) {
				t.Fatal("maintained D(G) differs from a full recomputation")
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
