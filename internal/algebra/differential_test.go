package algebra

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"clio/internal/expr"
	"clio/internal/relation"
	"clio/internal/value"
)

// naiveJoin is the executable specification of the join operator: a
// brute-force nested loop with no hashing, no batching, and no arena —
// evaluate the predicate on every (l, r) pair, then pad unmatched rows
// per the join kind. The pipeline must agree with it tuple-for-tuple
// as multisets; emission order is the pipeline's own business.
func naiveJoin(kind JoinKind, l, r *relation.Relation, on expr.Expr) []string {
	s := l.Scheme().Concat(r.Scheme())
	combined := func(lt, rt relation.Tuple) relation.Tuple {
		vals := make([]value.Value, 0, s.Arity())
		for i := 0; i < l.Scheme().Arity(); i++ {
			vals = append(vals, lt.At(i))
		}
		for i := 0; i < r.Scheme().Arity(); i++ {
			vals = append(vals, rt.At(i))
		}
		return relation.NewTuple(s, vals...)
	}
	lNull, rNull := relation.AllNull(l.Scheme()), relation.AllNull(r.Scheme())
	lm, rm := make([]bool, l.Len()), make([]bool, r.Len())
	var keys []string
	for i := 0; i < l.Len(); i++ {
		for j := 0; j < r.Len(); j++ {
			t := combined(l.At(i), r.At(j))
			if expr.Truth(on, t) == value.True {
				lm[i], rm[j] = true, true
				keys = append(keys, t.Key())
			}
		}
	}
	if kind == LeftJoin || kind == FullJoin {
		for i, m := range lm {
			if !m {
				keys = append(keys, combined(l.At(i), rNull).Key())
			}
		}
	}
	if kind == RightJoin || kind == FullJoin {
		for j, m := range rm {
			if !m {
				keys = append(keys, combined(lNull, r.At(j)).Key())
			}
		}
	}
	sort.Strings(keys)
	return keys
}

func sorted(keys []string) []string {
	out := append([]string(nil), keys...)
	sort.Strings(out)
	return out
}

// TestJoinDifferentialNaive is the join differential: for randomized
// inputs (NULL keys, duplicate keys, mixed kinds) and every join kind
// under equi, equi+residual, and non-equi predicates, the pipeline ≡
// the naive nested loop as multisets of canonical tuple keys. Run
// under -race by `make race`.
func TestJoinDifferentialNaive(t *testing.T) {
	kinds := []JoinKind{InnerJoin, LeftJoin, RightJoin, FullJoin}
	preds := []expr.Expr{
		expr.Equals("L.k", "R.k"),
		expr.And(expr.Equals("L.k", "R.k"), expr.MustParse("L.a < R.b")),
		expr.MustParse("L.a = R.b"), // still equi after split, different columns
		expr.MustParse("L.a < R.b"), // no equality conjunct: nested-loop path
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := randRel(rng, "L", []string{"L.k", "L.a"}, 1+rng.Intn(25))
		r := randRel(rng, "R", []string{"R.k", "R.b"}, 1+rng.Intn(25))
		in := relation.NewInstance(nil)
		in.MustAdd(l)
		in.MustAdd(r)
		for _, kind := range kinds {
			for pi, on := range preds {
				want := naiveJoin(kind, l, r, on)
				n := Join{Kind: kind, L: NewScan("L", ""), R: NewScan("R", ""), On: on}
				it, err := Open(context.Background(), n, in)
				if err != nil {
					t.Fatalf("seed %d kind %v pred %d: open: %v", seed, kind, pi, err)
				}
				got := sorted(iterKeys(t, it))
				if len(got) != len(want) {
					t.Fatalf("seed %d kind %v pred %d: pipeline %d rows, naive %d",
						seed, kind, pi, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d kind %v pred %d row %d: pipeline %q, naive %q",
							seed, kind, pi, i, got[i], want[i])
					}
				}
			}
		}
	}
}
