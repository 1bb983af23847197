package algebra

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"clio/internal/expr"
	"clio/internal/relation"
	"clio/internal/value"
)

// randRel builds a relation with integer key columns drawn from a small
// domain (to force matches, duplicates, and hash-bucket sharing) plus a
// payload column; a fraction of the key cells are NULL.
func randRel(rng *rand.Rand, name string, cols []string, rows int) *relation.Relation {
	s := relation.NewScheme(cols...)
	r := relation.New(name, s)
	for i := 0; i < rows; i++ {
		vals := make([]value.Value, len(cols))
		for c := range vals {
			switch rng.Intn(10) {
			case 0, 1:
				vals[c] = value.Null
			case 2:
				vals[c] = value.String(fmt.Sprintf("s%d", rng.Intn(4)))
			default:
				vals[c] = value.Int(int64(rng.Intn(6)))
			}
		}
		r.Add(relation.NewTuple(s, vals...))
	}
	return r
}

// iterKeys drains an iterator and returns its tuple keys in order.
func iterKeys(t *testing.T, it Iterator) []string {
	t.Helper()
	out, err := Drain(it)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	keys := make([]string, out.Len())
	for i := 0; i < out.Len(); i++ {
		keys[i] = out.At(i).Key()
	}
	return keys
}

// relKeys returns a relation's tuple keys in order.
func relKeys(r *relation.Relation) []string {
	keys := make([]string, r.Len())
	for i := 0; i < r.Len(); i++ {
		keys[i] = r.At(i).Key()
	}
	return keys
}

// requireSameKeys fails unless got and want hold the same keys in the
// same order.
func requireSameKeys(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s row %d: %q, reference %q", label, i, got[i], want[i])
		}
	}
}

// TestVecPipelineMatchesReference is the differential property test of
// the columnar operator set: for randomized inputs (NULL keys,
// duplicate keys, mixed-kind columns) and every join kind, a join
// under a select, a projection and a distinct must produce the rows of
// the same operators applied one by one to the nested-loop reference
// join, as multisets.
func TestVecPipelineMatchesReference(t *testing.T) {
	kinds := []JoinKind{InnerJoin, LeftJoin, RightJoin, FullJoin}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := randRel(rng, "L", []string{"L.k", "L.a"}, 1+rng.Intn(40))
		r := randRel(rng, "R", []string{"R.k", "R.b"}, 1+rng.Intn(40))
		in := relation.NewInstance(nil)
		in.MustAdd(l)
		in.MustAdd(r)

		on := expr.Equals("L.k", "R.k")
		pred := expr.MustParse("L.a < 4")
		for _, kind := range kinds {
			var n Node = Join{Kind: kind, L: NewScan("L", ""), R: NewScan("R", ""), On: on}
			n = Select{Child: n, Pred: pred}
			n = Project{Name: "P", Child: n, Cols: []OutputCol{
				{Name: "L.k", Expr: expr.Col{Name: "L.k"}},
				{Name: "R.b", Expr: expr.Col{Name: "R.b"}},
			}}
			n = Distinct{Child: n}
			it, err := Open(context.Background(), n, in)
			if err != nil {
				t.Fatalf("seed %d kind %v: open: %v", seed, kind, err)
			}
			got := sorted(iterKeys(t, it))

			ps := relation.NewScheme("L.k", "R.b")
			seen := map[string]bool{}
			var want []string
			for _, tu := range nestedLoopReference(kind, l, r, on).Tuples() {
				if expr.Truth(pred, tu) != value.True {
					continue
				}
				k := relation.NewTuple(ps, tu.Get("L.k"), tu.Get("R.b")).Key()
				if !seen[k] {
					seen[k] = true
					want = append(want, k)
				}
			}
			requireSameKeys(t, fmt.Sprintf("seed %d kind %v", seed, kind), got, sorted(want))
		}
	}
}

// TestVecJoinParallelWorkers forces the multi-worker morsel path (which
// a single-core host would otherwise never take) and checks it against
// the nested-loop reference and against the one-worker join, whose
// output order it must keep; under -race this also proves the
// partitioned build and morsel-aligned matched bitmaps are data-race
// free.
func TestVecJoinParallelWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	l := randRel(rng, "L", []string{"L.k", "L.a"}, 3000)
	r := randRel(rng, "R", []string{"R.k", "R.b"}, 37)
	in := relation.NewInstance(nil)
	in.MustAdd(l)
	in.MustAdd(r)
	on := expr.Equals("L.k", "R.k")
	for _, kind := range []JoinKind{InnerJoin, FullJoin} {
		n := Join{Kind: kind, L: NewScan("L", ""), R: NewScan("R", ""), On: on}
		joinWorkers = 1
		one, err := Open(context.Background(), n, in)
		if err != nil {
			t.Fatal(err)
		}
		want := iterKeys(t, one)
		joinWorkers = 4
		par, err := Open(context.Background(), n, in)
		if err != nil {
			t.Fatal(err)
		}
		got := iterKeys(t, par)
		joinWorkers = 0
		label := fmt.Sprintf("kind %v", kind)
		requireSameKeys(t, label, got, want)
		requireSameKeys(t, label, sorted(got), sorted(relKeys(nestedLoopReference(kind, l, r, on))))
	}
}

// TestVecJoinResidual checks the hash path with a residual conjunct and
// the nested-loop path (no equality conjunct at all) against the
// nested-loop reference, whose left-major order the nested loop keeps.
func TestVecJoinResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := randRel(rng, "L", []string{"L.k", "L.a"}, 25)
	r := randRel(rng, "R", []string{"R.k", "R.b"}, 25)
	in := relation.NewInstance(nil)
	in.MustAdd(l)
	in.MustAdd(r)

	residual := expr.And(
		expr.Equals("L.k", "R.k"),
		expr.MustParse("L.a < R.b"),
	)
	noEq := expr.MustParse("L.a = 2")
	for _, on := range []expr.Expr{residual, noEq} {
		for _, kind := range []JoinKind{InnerJoin, LeftJoin, RightJoin, FullJoin} {
			n := Join{Kind: kind, L: NewScan("L", ""), R: NewScan("R", ""), On: on}
			it, err := Open(context.Background(), n, in)
			if err != nil {
				t.Fatal(err)
			}
			got := iterKeys(t, it)
			want := relKeys(nestedLoopReference(kind, l, r, on))
			label := fmt.Sprintf("kind %v on %v", kind, on)
			if on == noEq {
				requireSameKeys(t, label, got, want)
			} else {
				requireSameKeys(t, label, sorted(got), sorted(want))
			}
		}
	}
}

// A join child whose output spans several batches must reach its
// parent whole: a chain L ⋈ R ⋈ S over 1:1 keys whose first join
// emits more than one batch keeps every row.
func TestJoinChainChildSpansBatches(t *testing.T) {
	const n = BatchSize + BatchSize/2
	in := relation.NewInstance(nil)
	for _, name := range []string{"L", "R", "S"} {
		r := relation.New(name, relation.NewScheme(name+".k", name+".v"))
		for i := 0; i < n; i++ {
			r.AddValues(value.Int(int64(i)), value.Int(int64(i%7)))
		}
		in.MustAdd(r)
	}
	plan := Join{Kind: InnerJoin,
		L:  Join{Kind: InnerJoin, L: NewScan("L", ""), R: NewScan("R", ""), On: expr.Equals("L.k", "R.k")},
		R:  NewScan("S", ""),
		On: expr.Equals("R.k", "S.k"),
	}
	got, err := Collect(context.Background(), plan, in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != n {
		t.Fatalf("chain join kept %d rows, want %d", got.Len(), n)
	}
	seen := make([]bool, n)
	for _, tu := range got.Tuples() {
		k := tu.Get("L.k").IntVal()
		if tu.Get("R.k").IntVal() != k || tu.Get("S.k").IntVal() != k || seen[k] {
			t.Fatalf("wrong or repeated row %v", tu)
		}
		seen[k] = true
	}
}
