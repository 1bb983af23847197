package discovery_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"clio/internal/datagen"
	"clio/internal/discovery"
	"clio/internal/paperdb"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// discoverINDsByKey is the string-keyed IND miner DiscoverINDs
// replaced: one Value.Key set per column, every cross-relation pair
// probed key by key. It is the oracle the interned miner must match.
func discoverINDsByKey(in *relation.Instance, minOverlap float64) []discovery.IND {
	type colSet struct {
		ref  schema.ColumnRef
		rel  string
		vals map[string]struct{}
	}
	var cols []colSet
	for _, r := range in.Relations() {
		for _, qn := range r.Scheme().Names() {
			ref, err := schema.ParseColumnRef(qn)
			if err != nil {
				continue
			}
			pos := r.Scheme().Index(qn)
			set := map[string]struct{}{}
			for _, t := range r.Tuples() {
				if v := t.At(pos); !v.IsNull() {
					set[v.Key()] = struct{}{}
				}
			}
			if len(set) > 0 {
				cols = append(cols, colSet{ref: ref, rel: r.Name, vals: set})
			}
		}
	}
	var out []discovery.IND
	for i, from := range cols {
		for j, to := range cols {
			if i == j || from.rel == to.rel {
				continue
			}
			hits := 0
			for k := range from.vals {
				if _, ok := to.vals[k]; ok {
					hits++
				}
			}
			overlap := float64(hits) / float64(len(from.vals))
			if hits > 0 && overlap >= minOverlap {
				out = append(out, discovery.IND{From: from.ref, To: to.ref, Overlap: overlap})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Overlap != out[j].Overlap {
			return out[i].Overlap > out[j].Overlap
		}
		if out[i].From.String() != out[j].From.String() {
			return out[i].From.String() < out[j].From.String()
		}
		return out[i].To.String() < out[j].To.String()
	})
	return out
}

// edgesByQuadraticDedup is the Knowledge.Add rule BuildKnowledge
// followed before the pair set: every edge is compared with each
// earlier one by its unordered column-name pair, and the first wins.
func edgesByQuadraticDedup(in *relation.Instance, inds []discovery.IND) []discovery.JoinEdge {
	key := func(e discovery.JoinEdge) string {
		a, b := e.From.String(), e.To.String()
		if a > b {
			a, b = b, a
		}
		return a + "\x00" + b
	}
	var edges []discovery.JoinEdge
	add := func(e discovery.JoinEdge) {
		for _, prev := range edges {
			if key(prev) == key(e) {
				return
			}
		}
		edges = append(edges, e)
	}
	if in.Schema != nil {
		for _, fk := range in.Schema.ForeignKs {
			for i := range fk.FromAttrs {
				add(discovery.JoinEdge{
					From:   schema.Col(fk.FromRelation, fk.FromAttrs[i]),
					To:     schema.Col(fk.ToRelation, fk.ToAttrs[i]),
					Source: discovery.SourceFK,
				})
			}
		}
	}
	for _, ind := range inds {
		add(discovery.JoinEdge{From: ind.From, To: ind.To, Source: discovery.SourceIND})
	}
	return edges
}

// randomMiningInstance builds relations whose cells come from a small
// pool that stresses value identity: duplicate rows, NULLs, empty and
// all-NULL columns, an empty relation, Int/Float pairs that are Equal,
// ±0.0, NaN, ints past 2^53 that round to one float64, and strings
// that look like numbers.
func randomMiningInstance(rng *rand.Rand) *relation.Instance {
	pool := []value.Value{
		value.Int(2), value.Float(2), value.Int(3), value.Float(3.5),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Int(0),
		value.Float(math.NaN()), value.Float(math.Inf(1)),
		value.Int(1 << 53), value.Int(1<<53 + 1), value.Float(1 << 53),
		value.String("2"), value.String("002"), value.String("2.0"),
		value.String("a"), value.String("b"), value.String(""),
		value.Bool(true), value.Bool(false),
	}
	sch := schema.NewDatabase()
	in := relation.NewInstance(sch)
	nrel := 2 + rng.Intn(3)
	for ri := 0; ri < nrel; ri++ {
		name := fmt.Sprintf("T%d", ri)
		ncol := 1 + rng.Intn(4)
		attrs := make([]schema.Attribute, ncol)
		for c := range attrs {
			attrs[c] = schema.Attribute{Name: fmt.Sprintf("c%d", c)}
		}
		sch.MustAddRelation(schema.NewRelation(name, attrs...))
		r := in.NewRelationFor(name)
		rows := rng.Intn(12)
		if ri == 0 {
			rows = 0 // one empty relation per instance
		}
		allNull := rng.Intn(ncol + 1) // may be ncol: no all-NULL column
		// Each column draws from its own window of the pool, so some
		// pairs overlap fully, some partly and some not at all.
		lo := make([]int, ncol)
		span := make([]int, ncol)
		for c := range lo {
			lo[c] = rng.Intn(len(pool))
			span[c] = 1 + rng.Intn(len(pool)-lo[c])
		}
		for j := 0; j < rows; j++ {
			if j > 0 && rng.Intn(4) == 0 {
				r.Add(r.At(rng.Intn(r.Len()))) // duplicate row
				continue
			}
			vals := make([]value.Value, ncol)
			for c := range vals {
				if c == allNull || rng.Intn(5) == 0 {
					continue
				}
				vals[c] = pool[lo[c]+rng.Intn(span[c])]
			}
			r.AddValues(vals...)
		}
		in.MustAdd(r)
	}
	return in
}

// The interned miner answers exactly as the string-keyed one: the same
// INDs, in the same order, with the same Overlap bits, at every
// threshold, on paperdb, datagen and random instances.
func TestDiscoverINDsMatchesKeyedOracle(t *testing.T) {
	type namedInstance struct {
		name string
		in   *relation.Instance
	}
	cases := []namedInstance{
		{"paperdb", paperdb.Instance()},
		{"wide", datagen.WideInstance(4, 4, 300, 80, 5)},
		{"wide-8x8", datagen.WideInstance(8, 8, 200, 51, 7)},
		{"chain", datagen.Chain(datagen.ChainSpec{Relations: 4, Rows: 120, KeySpace: 60, MatchProb: 0.8, Seed: 3}).Instance},
		{"ecommerce", datagen.ECommerce(datagen.ECommerceSpec{Customers: 40, Orders: 90, LinesPerOrder: 3, Products: 25, ShipRate: 0.7, Seed: 2})},
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		cases = append(cases, namedInstance{fmt.Sprintf("random-%d", i), randomMiningInstance(rng)})
	}
	ctx := context.Background()
	for _, c := range cases {
		for _, minOverlap := range []float64{0.01, 0.5, 0.95, 1} {
			got := discovery.DiscoverINDs(ctx, c.in, minOverlap)
			want := discoverINDsByKey(c.in, minOverlap)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at minOverlap %v:\ngot  %v\nwant %v", c.name, minOverlap, got, want)
			}
			for k := range want {
				if math.Float64bits(got[k].Overlap) != math.Float64bits(want[k].Overlap) {
					t.Fatalf("%s at minOverlap %v: IND %d overlap bits differ", c.name, minOverlap, k)
				}
			}
		}
	}
}

// The pair set in Knowledge.Add keeps the quadratic dedup's answer:
// the same edges, in the same order, from the same sources.
func TestKnowledgeDedupMatchesQuadratic(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name       string
		in         *relation.Instance
		minOverlap float64
	}{
		{"paperdb", paperdb.Instance(), 1},
		{"paperdb-partial", paperdb.Instance(), 0.3},
		{"wide-8x8x2000", datagen.WideInstance(8, 8, 2000, 2000/4+1, 5), 0.95},
	} {
		inds := discovery.DiscoverINDs(ctx, c.in, c.minOverlap)
		got := discovery.BuildKnowledge(ctx, c.in, true, c.minOverlap).Edges()
		want := edgesByQuadraticDedup(c.in, inds)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d edges, quadratic dedup gives %d:\ngot  %v\nwant %v", c.name, len(got), len(want), got, want)
		}
	}
}

// A scanning index answers every value as the built index does, on
// instances whose numbers make Equal and Key disagree.
func TestScanIndexMatchesBuiltIndex(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 100; i++ {
		in := randomMiningInstance(rng)
		built, scan := discovery.BuildValueIndex(ctx, in), discovery.ScanIndex(in)
		for _, r := range in.Relations() {
			for _, tp := range r.Tuples() {
				for p := 0; p < tp.Scheme().Arity(); p++ {
					v := tp.At(p)
					if got, want := scan.Occurrences(v), built.Occurrences(v); !reflect.DeepEqual(got, want) {
						t.Fatalf("instance %d, value %v: scan %v, index %v", i, v, got, want)
					}
				}
			}
		}
	}
}
