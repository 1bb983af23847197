package algebra_test

import (
	"context"
	"fmt"
	"testing"

	"clio/internal/algebra"
	"clio/internal/expr"
	"clio/internal/paperdb"
	"clio/internal/relation"
	"clio/internal/value"
)

// The allocation story of the hash-keyed core: neither duplicate
// elimination nor the hash-join build/probe loops may allocate a
// string per tuple (the old canonical-key encoding did). The
// benchmarks report allocs/op on the paper's Figure-8 instance; the
// AllocsPerRun tests pin the no-per-tuple-allocation property on
// inputs large enough that any per-tuple allocation dominates.

func BenchmarkFigure8HashJoin(b *testing.B) {
	in := paperdb.Instance()
	l := in.Relation("Children")
	r := in.Relation("Parents")
	on := expr.MustParse("Children.mid = Parents.ID")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algebra.JoinRelations(algebra.InnerJoin, l, r, on)
	}
}

func BenchmarkFigure8Distinct(b *testing.B) {
	in := paperdb.Instance()
	c := in.Relation("Children")
	doubled := relation.New("C2", c.Scheme())
	for _, t := range c.Tuples() {
		doubled.Add(t)
		doubled.Add(t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doubled.Distinct()
	}
}

// stringRelation builds n rows of string-valued tuples — the worst
// case for a string-keyed encoding, which would allocate a fresh key
// per tuple.
func stringRelation(name string, n, dup int) *relation.Relation {
	r := relation.New(name, relation.NewScheme(name+".k", name+".v"))
	for i := 0; i < n; i++ {
		r.AddValues(value.String(fmt.Sprintf("key-%d", i/dup)), value.String(fmt.Sprintf("val-%d", i)))
	}
	return r
}

// Distinct over n string tuples must allocate O(1) amortized per run,
// not per tuple: the dedup state is hash-keyed, so only map growth
// and the survivor slice allocate.
func TestDistinctAllocsDoNotScalePerTuple(t *testing.T) {
	const n = 4096
	r := stringRelation("R", n, 2) // every key twice: real dedup work
	allocs := testing.AllocsPerRun(5, func() { r.Distinct() })
	if allocs >= n/4 {
		t.Errorf("Distinct allocated %.0f times for %d rows — scales per tuple", allocs, n)
	}
}

// vecInstance wraps relations into an instance for the columnar
// pipeline entry points.
func vecInstance(rels ...*relation.Relation) *relation.Instance {
	in := relation.NewInstance(nil)
	for _, r := range rels {
		in.MustAdd(r)
	}
	return in
}

// The vectorized distinct kernel over n heavily-duplicated rows must
// allocate O(survivors), not O(n): per-tuple work is hash mixing over
// column vectors plus open-addressed probes, none of which allocate.
func TestVecDistinctAllocsDoNotScalePerTuple(t *testing.T) {
	const n = 4096
	r := stringRelation("R", n, 64) // 64 copies per key: 64 survivors
	in := vecInstance(r)
	n1 := algebra.Distinct{Child: algebra.NewScan("R", "")}
	allocs := testing.AllocsPerRun(5, func() {
		it, err := algebra.Open(context.Background(), n1, in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := algebra.Drain(it); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= n/4 {
		t.Errorf("vectorized distinct allocated %.0f times for %d rows — scales per tuple", allocs, n)
	}
}

// The partitioned columnar join's probe loop over n no-match probes
// must not allocate per probe: partition routing and bucket probes run
// on preallocated vectors, and an empty match set emits nothing.
func TestVecJoinProbeAllocsDoNotScalePerTuple(t *testing.T) {
	const n = 4096
	l := stringRelation("L", n, 1)
	r := relation.New("R", relation.NewScheme("R.k", "R.v"))
	for i := 0; i < n; i++ {
		r.AddValues(value.String(fmt.Sprintf("other-%d", i)), value.String("x"))
	}
	in := vecInstance(l, r)
	join := algebra.Join{Kind: algebra.InnerJoin,
		L: algebra.NewScan("L", ""), R: algebra.NewScan("R", ""),
		On: expr.MustParse("L.k = R.k")}
	allocs := testing.AllocsPerRun(5, func() {
		it, err := algebra.Open(context.Background(), join, in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := algebra.Drain(it); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= n/4 {
		t.Errorf("no-match columnar join allocated %.0f times for %d probes — scales per tuple", allocs, n)
	}
}
