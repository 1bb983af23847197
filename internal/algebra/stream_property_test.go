package algebra

import (
	"context"
	"math/rand"
	"testing"

	"clio/internal/expr"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// nestedLoopReference evaluates a join with the textbook quadratic
// algorithm under 3VL: every pair is tested with the full predicate,
// then unmatched rows are padded per join kind.
func nestedLoopReference(kind JoinKind, l, r *relation.Relation, on expr.Expr) *relation.Relation {
	s := l.Scheme().Concat(r.Scheme())
	concat := func(lt, rt relation.Tuple) relation.Tuple {
		vals := make([]value.Value, 0, s.Arity())
		for i := 0; i < lt.Scheme().Arity(); i++ {
			vals = append(vals, lt.At(i))
		}
		for i := 0; i < rt.Scheme().Arity(); i++ {
			vals = append(vals, rt.At(i))
		}
		return relation.NewTuple(s, vals...)
	}
	out := relation.New("J", s)
	lm := make([]bool, l.Len())
	rm := make([]bool, r.Len())
	for i := 0; i < l.Len(); i++ {
		for j := 0; j < r.Len(); j++ {
			t := concat(l.At(i), r.At(j))
			if expr.Truth(on, t) == value.True {
				lm[i], rm[j] = true, true
				out.Add(t)
			}
		}
	}
	if kind == LeftJoin || kind == FullJoin {
		rn := relation.AllNull(r.Scheme())
		for i := 0; i < l.Len(); i++ {
			if !lm[i] {
				out.Add(concat(l.At(i), rn))
			}
		}
	}
	if kind == RightJoin || kind == FullJoin {
		ln := relation.AllNull(l.Scheme())
		for j := 0; j < r.Len(); j++ {
			if !rm[j] {
				out.Add(concat(ln, r.At(j)))
			}
		}
	}
	return out
}

// randomJoinSide builds a relation with a low-cardinality join key
// (forcing collisions and fan-out) and a payload column, both with
// occasional nulls. Sizes cross the iterator batch boundary.
func randomJoinSide(rng *rand.Rand, name, key, payload string) *relation.Relation {
	r := relation.New(name, relation.NewScheme(key, payload))
	n := rng.Intn(90)
	for i := 0; i < n; i++ {
		var k, v value.Value
		if rng.Intn(8) == 0 {
			k = value.Null
		} else {
			k = value.Int(int64(rng.Intn(7)))
		}
		if rng.Intn(8) == 0 {
			v = value.Null
		} else {
			v = value.Int(int64(rng.Intn(5)))
		}
		r.AddValues(k, v)
	}
	return r
}

// Differential property: the streaming join — hash path, residual
// path, and nested-loop path, all four kinds — must produce exactly
// the nested-loop 3VL reference, with and without a context.
func TestJoinMatchesNestedLoopReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	kinds := []JoinKind{InnerJoin, LeftJoin, RightJoin, FullJoin}
	preds := []expr.Expr{
		expr.MustParse("L.k = R.k"),               // pure hash path
		expr.MustParse("L.k = R.k AND L.v < R.w"), // hash + residual
		expr.MustParse("L.v < R.w"),               // nested loop
	}
	for trial := 0; trial < 30; trial++ {
		l := randomJoinSide(rng, "L", "L.k", "L.v")
		r := randomJoinSide(rng, "R", "R.k", "R.w")
		for _, kind := range kinds {
			for _, on := range preds {
				want := nestedLoopReference(kind, l, r, on)
				got := JoinRelations(kind, l, r, on)
				if !want.EqualSet(got) {
					t.Fatalf("trial %d kind %v on %v: join %d rows, reference %d\n|L|=%d |R|=%d",
						trial, kind, on, got.Len(), want.Len(), l.Len(), r.Len())
				}
				ctxGot, err := JoinRelationsCtx(context.Background(), kind, l, r, on)
				if err != nil || !want.EqualSet(ctxGot) {
					t.Fatalf("trial %d kind %v on %v: ctx join diverged (err=%v)", trial, kind, on, err)
				}
			}
		}
	}
}

// Differential property: a multi-operator streamed plan must agree
// with per-operator references composed by materialization — select
// via 3VL filtering, distinct via canonical string keys, projection via
// per-tuple expression evaluation — on inputs spanning several
// batches.
func TestPipelineMatchesOperatorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	sch := schema.NewDatabase()
	sch.MustAddRelation(schema.NewRelation("R",
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt},
	))
	for trial := 0; trial < 20; trial++ {
		in := relation.NewInstance(sch)
		r := in.NewRelationFor("R")
		n := 2*BatchSize + rng.Intn(BatchSize) // several batches
		for i := 0; i < n; i++ {
			var a, b value.Value
			if rng.Intn(6) == 0 {
				a = value.Null
			} else {
				a = value.Int(int64(rng.Intn(5)))
			}
			if rng.Intn(6) == 0 {
				b = value.Null
			} else {
				b = value.Int(int64(rng.Intn(4)))
			}
			r.AddValues(a, b)
		}
		in.MustAdd(r)

		pred := expr.MustParse("R.a < 3 OR R.b = 2")
		plan := Distinct{Child: Select{Child: NewScan("R", ""), Pred: pred}}
		got, err := Collect(context.Background(), plan, in)
		if err != nil {
			t.Fatal(err)
		}

		seen := map[string]bool{}
		ref := relation.New("R", r.Scheme())
		for _, tu := range r.Tuples() {
			if expr.Truth(pred, tu) != value.True {
				continue
			}
			if k := tu.Key(); !seen[k] {
				seen[k] = true
				ref.Add(tu)
			}
		}
		if !ref.EqualSet(got) {
			t.Fatalf("trial %d: pipeline %d rows, reference %d rows", trial, got.Len(), ref.Len())
		}
		// Eval must be the same computation under the background context.
		ev, err := plan.Eval(in)
		if err != nil || !ref.EqualSet(ev) {
			t.Fatalf("trial %d: Eval diverged from pipeline (err=%v)", trial, err)
		}

		// Projection over the same scan: reference is per-tuple
		// expression evaluation.
		proj := Project{Name: "P", Child: NewScan("R", ""), Cols: []OutputCol{
			{Name: "P.x", Expr: expr.MustParse("R.a")},
			{Name: "P.y", Expr: expr.MustParse("R.b + 1")},
		}}
		pgot, err := Collect(context.Background(), proj, in)
		if err != nil {
			t.Fatal(err)
		}
		ps := relation.NewScheme("P.x", "P.y")
		pref := relation.New("P", ps)
		for _, tu := range r.Tuples() {
			pref.Add(relation.NewTuple(ps, proj.Cols[0].Expr.Eval(tu), proj.Cols[1].Expr.Eval(tu)))
		}
		if pgot.Len() != pref.Len() || !pref.EqualSet(pgot) {
			t.Fatalf("trial %d: projection %d rows, reference %d rows", trial, pgot.Len(), pref.Len())
		}
	}
}
