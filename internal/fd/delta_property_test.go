package fd

import (
	"context"
	"math/rand"
	"testing"

	"clio/internal/expr"
	"clio/internal/graph"
	"clio/internal/relation"
	"clio/internal/value"
)

// applyRandomRowEdit mutates a random base relation of in (insert or
// delete) and returns the base name, the edited tuple, and whether it
// was a delete. The instance is mutated before the caller maintains
// the materialization, matching the MaintainRows contract.
func applyRandomRowEdit(rng *rand.Rand, in *relation.Instance, bases []string) (string, relation.Tuple, bool) {
	base := bases[rng.Intn(len(bases))]
	r := in.Relation(base)
	if r.Len() > 0 && rng.Intn(2) == 0 {
		tp := r.RemoveAt(rng.Intn(r.Len()))
		return base, tp, true
	}
	r.AddValues(value.Int(int64(rng.Intn(4))), value.Int(int64(rng.Intn(100))))
	return base, r.At(r.Len() - 1), false
}

// Differential property (the tentpole's correctness core): after every
// row edit of a randomized sequence, the delta-maintained D(G) is
// row-identical to a full recomputation and to the naive reference —
// on trees and on cyclic graphs. Run under -race via `make check`.
func TestDeltaMaintainedEqualsRecomputeRandomEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(8081))
	ctx := context.Background()
	for trial := 0; trial < 16; trial++ {
		var g *graph.QueryGraph
		var in *relation.Instance
		cyclic := trial%2 == 1
		if cyclic {
			g, in = randomCyclicCase(rng, 3+rng.Intn(2), 1+rng.Intn(3))
		} else {
			g, in = randomTreeCase(rng, 2+rng.Intn(3), 1+rng.Intn(3))
		}
		bases := g.Nodes()
		mat, err := NewMaterialized(ctx, g, in)
		if err != nil {
			t.Fatal(err)
		}
		deltas := 0
		for step := 0; step < 12; step++ {
			base, tp, del := applyRandomRowEdit(rng, in, bases)
			d, mat2, mode, err := MaintainRows(ctx, mat, nil, g, in, base, tp, del)
			if err != nil {
				t.Fatalf("trial %d step %d: MaintainRows: %v", trial, step, err)
			}
			mat = mat2
			if mode == "delta" {
				deltas++
			}
			want, err := FullDisjunction(ctx, g, in)
			if err != nil {
				t.Fatal(err)
			}
			if !d.EqualSet(want) {
				t.Fatalf("trial %d step %d (cyclic=%v, %s %v of %s, mode=%s): maintained D(G) differs\n got:\n%v\nwant:\n%v",
					trial, step, cyclic, map[bool]string{true: "delete", false: "insert"}[del], tp, base, mode, d.Sorted(), want.Sorted())
			}
			naive, err := FullDisjunctionNaive(ctx, g, in)
			if err != nil {
				t.Fatal(err)
			}
			if !d.EqualSet(naive) {
				t.Fatalf("trial %d step %d: maintained D(G) differs from naive reference", trial, step)
			}
		}
		if deltas == 0 {
			t.Fatalf("trial %d: no edit took the delta path", trial)
		}
	}
}

// Correspondence/filter edits change the query graph, not a base
// relation: the materialization no longer matches and MaintainRows
// must rebuild (mode "recompute") — and still agree with a full
// recomputation afterwards.
func TestMaintainRowsRebuildsOnGraphChange(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	ctx := context.Background()
	g, in := randomTreeCase(rng, 3, 3)
	mat, err := NewMaterialized(ctx, g, in)
	if err != nil {
		t.Fatal(err)
	}
	// Evolve the graph: close a cycle (a new correspondence between two
	// already-mapped relations does exactly this in the workspace).
	names := g.Nodes()
	g2 := g.Clone()
	for i := range names {
		a, b := names[i], names[(i+1)%len(names)]
		if _, ok := g2.EdgeBetween(a, b); !ok {
			g2.MustAddEdge(a, b, expr.Equals(a+".k", b+".k"))
			break
		}
	}
	if mat.Matches(g2) {
		t.Fatal("materialization should not match the evolved graph")
	}
	base := names[0]
	r := in.Relation(base)
	r.AddValues(value.Int(1), value.Int(50))
	tp := r.At(r.Len() - 1)
	d, mat2, mode, err := MaintainRows(ctx, mat, nil, g2, in, base, tp, false)
	if err != nil {
		t.Fatal(err)
	}
	if mode != "recompute" {
		t.Fatalf("graph change maintained via %q, want recompute", mode)
	}
	if !mat2.Matches(g2) {
		t.Fatal("rebuilt materialization should match the new graph")
	}
	want, err := FullDisjunction(ctx, g2, in)
	if err != nil {
		t.Fatal(err)
	}
	if !d.EqualSet(want) {
		t.Fatal("rebuilt D(G) differs from full recomputation")
	}
	// And the rebuilt materialization keeps delta-maintaining correctly.
	tp2 := r.RemoveAt(0)
	d2, _, mode2, err := MaintainRows(ctx, mat2, nil, g2, in, base, tp2, true)
	if err != nil {
		t.Fatal(err)
	}
	if mode2 != "delta" {
		t.Fatalf("post-rebuild edit maintained via %q, want delta", mode2)
	}
	want2, err := FullDisjunction(ctx, g2, in)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.EqualSet(want2) {
		t.Fatal("post-rebuild delta D(G) differs from full recomputation")
	}
}

// The maintained relation must also be byte-canonical: a rebuilt
// materialization over the same instance renders identical rows in
// identical order, which is what keeps live, replayed, and resurrected
// sessions byte-identical at the view layer.
func TestMaterializedRenderIsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	ctx := context.Background()
	g, in := randomTreeCase(rng, 3, 4)
	mat, err := NewMaterialized(ctx, g, in)
	if err != nil {
		t.Fatal(err)
	}
	// Drive a few edits through the delta path.
	bases := g.Nodes()
	for step := 0; step < 6; step++ {
		base, tp, del := applyRandomRowEdit(rng, in, bases)
		if err := mat.ApplyRow(ctx, g, in, base, tp, del); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := NewMaterialized(ctx, g, in)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mat.Rel(), fresh.Rel()
	if a.String() != b.String() {
		t.Fatalf("delta-maintained render differs from fresh rebuild:\n%v\nvs\n%v", a, b)
	}
}
