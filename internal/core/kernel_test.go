package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"clio/internal/core"
	"clio/internal/datagen"
	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/paperdb"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// The reference below is the per-tuple evaluation the compiled kernels
// replace: a target scheme built for every association, columns looked
// up by name, requirements keyed by strings, and old examples matched
// by Key/KeyOn strings. The kernels must reproduce it exactly.

func refTransform(m *core.Mapping, d relation.Tuple) relation.Tuple {
	ts := relation.SchemeFor(m.Target)
	vals := make([]value.Value, ts.Arity())
	for _, c := range m.Corrs {
		if i := ts.Index(c.Target.String()); i >= 0 {
			vals[i] = c.Apply(d)
		}
	}
	return relation.NewTuple(ts, vals...)
}

func refSatisfies(filters []expr.Expr, t relation.Tuple) bool {
	for _, f := range filters {
		if expr.Truth(f, t) != value.True {
			return false
		}
	}
	return true
}

func refEvaluateOn(m *core.Mapping, dg *relation.Relation) *relation.Relation {
	out := relation.New(m.Target.Name, relation.SchemeFor(m.Target))
	for _, d := range dg.Tuples() {
		if !refSatisfies(m.SourceFilters, d) {
			continue
		}
		t := refTransform(m, d)
		if !refSatisfies(m.TargetFilters, t) {
			continue
		}
		out.Add(t)
	}
	return out.Distinct()
}

func refExamplesOn(t *testing.T, m *core.Mapping, in *relation.Instance, dg *relation.Relation) []core.Example {
	t.Helper()
	var out []core.Example
	for _, d := range dg.Tuples() {
		cov, err := fd.Coverage(d, m.Graph, in)
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(cov)
		tt := refTransform(m, d)
		pos := refSatisfies(m.SourceFilters, d) && refSatisfies(m.TargetFilters, tt)
		out = append(out, core.Example{Assoc: d, Target: tt, Positive: pos, Coverage: cov})
	}
	return out
}

// refRequirementsOf derives the string-keyed requirements of
// Definitions 4.2, 4.4 and 4.5 and each example's covered keys.
func refRequirementsOf(m *core.Mapping, all []core.Example) (reqs map[string]bool, covers [][]string) {
	reqs = map[string]bool{}
	covers = make([][]string, len(all))
	ts := m.TargetScheme()
	for i, e := range all {
		ck := e.CoverageKey()
		ks := []string{"G|" + ck}
		if e.Positive {
			ks = append(ks, "F+|"+ck)
			for _, attr := range ts.Names() {
				if e.Target.Get(attr).IsNull() {
					ks = append(ks, "V0|"+ck+"|"+attr)
				} else {
					ks = append(ks, "V+|"+ck+"|"+attr)
				}
			}
		} else {
			ks = append(ks, "F-|"+ck)
		}
		covers[i] = ks
		for _, k := range ks {
			reqs[k] = true
		}
	}
	return reqs, covers
}

// refCover is the string-keyed greedy cover: the unchosen example with
// the largest gain, lowest index on ties, until nothing is uncovered.
func refCover(reqs map[string]bool, covers [][]string, chosen []bool, covered map[string]bool, pick func(int)) {
	uncovered := 0
	for k := range reqs {
		if !covered[k] {
			uncovered++
		}
	}
	for uncovered > 0 {
		best, bestGain := -1, 0
		for i := range covers {
			if chosen[i] {
				continue
			}
			gain := 0
			for _, k := range covers[i] {
				if !covered[k] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return
		}
		chosen[best] = true
		pick(best)
		for _, k := range covers[best] {
			if !covered[k] {
				covered[k] = true
				uncovered--
			}
		}
	}
}

func refSelectSufficient(m *core.Mapping, full []core.Example) []core.Example {
	reqs, covers := refRequirementsOf(m, full)
	var out []core.Example
	refCover(reqs, covers, make([]bool, len(full)), map[string]bool{}, func(i int) {
		out = append(out, full[i])
	})
	return out
}

func refEvolveOnDG(t *testing.T, old core.Illustration, newM *core.Mapping, in *relation.Instance, newDG *relation.Relation) core.Evolved {
	t.Helper()
	oldScheme, err := fd.Scheme(old.Mapping.Graph, in)
	if err != nil {
		t.Fatal(err)
	}
	full := refExamplesOn(t, newM, in, newDG)
	oldByKey := map[string]int{}
	for i, e := range old.Examples {
		oldByKey[e.Assoc.Key()] = i
	}
	extended := make([]bool, len(old.Examples))
	out := core.Evolved{Illustration: core.Illustration{Mapping: newM}, Old: len(old.Examples)}
	chosen := make([]bool, len(full))
	var projPos []int
	if len(full) > 0 {
		projPos = full[0].Assoc.Scheme().Positions(oldScheme.Names()...)
	}
	for i, e := range full {
		if j, ok := oldByKey[e.Assoc.KeyOn(projPos)]; ok {
			extended[j] = true
			e.Inherited = true
			out.Examples = append(out.Examples, e)
			chosen[i] = true
		}
	}
	for _, x := range extended {
		if x {
			out.Extended++
		}
	}
	reqs, covers := refRequirementsOf(newM, full)
	covered := map[string]bool{}
	for i := range full {
		if chosen[i] {
			for _, k := range covers[i] {
				covered[k] = true
			}
		}
	}
	refCover(reqs, covers, chosen, covered, func(i int) {
		out.Examples = append(out.Examples, full[i])
		out.Fresh++
	})
	return out
}

func refMissingRequirements(t *testing.T, il core.Illustration, in *relation.Instance) []string {
	t.Helper()
	dg, err := il.Mapping.DG(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	reqs, _ := refRequirementsOf(il.Mapping, refExamplesOn(t, il.Mapping, in, dg))
	_, have := refRequirementsOf(il.Mapping, il.Examples)
	covered := map[string]bool{}
	for _, ks := range have {
		for _, k := range ks {
			covered[k] = true
		}
	}
	var missing []string
	for k := range reqs {
		if !covered[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	return missing
}

// sameTuples compares two relations tuple by tuple: scheme names and
// canonical keys, in order.
func sameTuples(t *testing.T, what string, got, want *relation.Relation) {
	t.Helper()
	if !reflect.DeepEqual(got.Scheme().Names(), want.Scheme().Names()) {
		t.Fatalf("%s: scheme %v, reference %v", what, got.Scheme(), want.Scheme())
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d tuples, reference %d", what, got.Len(), want.Len())
	}
	for i := range got.Tuples() {
		if got.At(i).Key() != want.At(i).Key() {
			t.Fatalf("%s: tuple %d is %v, reference %v", what, i, got.At(i), want.At(i))
		}
	}
}

func sameExamples(t *testing.T, what string, got, want []core.Example) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d examples, reference %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Assoc.Key() != w.Assoc.Key() || g.Target.Key() != w.Target.Key() ||
			!reflect.DeepEqual(g.Target.Scheme().Names(), w.Target.Scheme().Names()) ||
			g.Positive != w.Positive || g.Inherited != w.Inherited ||
			!reflect.DeepEqual(g.Coverage, w.Coverage) {
			t.Fatalf("%s: example %d is\n  %+v\nreference\n  %+v", what, i, g, w)
		}
	}
}

// coverage counts what the differential runs exercised, so a test can
// tell a vacuous comparison from a real one.
type coverage struct{ negatives, missing, extended, fresh int }

// checkKernels compares every compiled kernel with the reference on
// one mapping, evolving from old (a mapping over a subgraph of m's
// graph).
func checkKernels(t *testing.T, name string, m, old *core.Mapping, in *relation.Instance, cov *coverage) {
	t.Helper()
	ctx := context.Background()
	dg, err := m.DG(ctx, in)
	if err != nil {
		t.Fatalf("%s: D(G): %v", name, err)
	}
	sameTuples(t, name+" EvaluateOn", m.EvaluateOn(dg), refEvaluateOn(m, dg))
	for i, d := range dg.Tuples() {
		if got, want := m.Transform(d), refTransform(m, d); got.Key() != want.Key() {
			t.Fatalf("%s: Transform of association %d is %v, reference %v", name, i, got, want)
		}
	}

	full, err := core.ExamplesOn(ctx, m, in, dg)
	if err != nil {
		t.Fatalf("%s: ExamplesOn: %v", name, err)
	}
	refFull := refExamplesOn(t, m, in, dg)
	sameExamples(t, name+" ExamplesOn", full.Examples, refFull)
	cov.negatives += len(full.Negatives())

	suff := core.SelectSufficient(ctx, m, full)
	sameExamples(t, name+" SelectSufficient", suff.Examples, refSelectSufficient(m, refFull))

	// Partial illustrations miss requirements: every other chosen
	// example, every third example of D(G), and none at all.
	for _, part := range [][]core.Example{everyNth(suff.Examples, 2), everyNth(full.Examples, 3), nil} {
		il := core.Illustration{Mapping: m, Examples: part}
		got, err := il.MissingRequirements(in)
		if err != nil {
			t.Fatalf("%s: MissingRequirements: %v", name, err)
		}
		if want := refMissingRequirements(t, il, in); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: MissingRequirements of %d examples\n  %q\nreference\n  %q", name, len(part), got, want)
		}
		cov.missing += len(got)
	}

	oldDG, err := old.DG(ctx, in)
	if err != nil {
		t.Fatalf("%s: old D(G): %v", name, err)
	}
	oldFull, err := core.ExamplesOn(ctx, old, in, oldDG)
	if err != nil {
		t.Fatal(err)
	}
	// Evolve a sufficient illustration, the same one with its first
	// example duplicated, and every other example of the old D(G).
	oldIll := core.SelectSufficient(ctx, old, oldFull)
	dup := oldIll
	if len(oldIll.Examples) > 0 {
		dup.Examples = append(append([]core.Example(nil), oldIll.Examples...), oldIll.Examples[0])
	}
	for _, o := range []core.Illustration{oldIll, dup, {Mapping: old, Examples: everyNth(oldFull.Examples, 2)}} {
		got, err := core.EvolveOnDG(ctx, o, m, in, dg)
		if err != nil {
			t.Fatalf("%s: EvolveOnDG: %v", name, err)
		}
		want := refEvolveOnDG(t, o, m, in, dg)
		if got.Old != want.Old || got.Extended != want.Extended || got.Fresh != want.Fresh {
			t.Fatalf("%s: evolution counts old/extended/fresh %d/%d/%d, reference %d/%d/%d",
				name, got.Old, got.Extended, got.Fresh, want.Old, want.Extended, want.Fresh)
		}
		sameExamples(t, name+" EvolveOnDG", got.Examples, want.Examples)
		cov.extended += got.Extended
		cov.fresh += got.Fresh
	}
}

func (c coverage) check(t *testing.T) {
	t.Helper()
	if c.negatives == 0 || c.missing == 0 || c.extended == 0 || c.fresh == 0 {
		t.Fatalf("vacuous differential run: %+v", c)
	}
}

func everyNth(es []core.Example, n int) []core.Example {
	var out []core.Example
	for i := 0; i < len(es); i += n {
		out = append(out, es[i])
	}
	return out
}

// restrict returns a copy of m over the subgraph induced on nodes,
// keeping the correspondences and filters that read only those nodes.
func restrict(m *core.Mapping, nodes ...string) *core.Mapping {
	keep := map[string]bool{}
	for _, n := range nodes {
		keep[n] = true
	}
	reads := func(e expr.Expr) bool {
		for _, col := range e.Columns(nil) {
			ref, err := schema.ParseColumnRef(col)
			if err != nil || (ref.Relation != m.Target.Name && !keep[ref.Relation]) {
				return false
			}
		}
		return true
	}
	out := core.NewMapping(m.Name+"-sub", m.Target)
	out.Graph = m.Graph.Induced(nodes)
	for _, c := range m.Corrs {
		if reads(c.Expr) {
			out.Corrs = append(out.Corrs, c)
		}
	}
	for _, f := range m.SourceFilters {
		if reads(f) {
			out.SourceFilters = append(out.SourceFilters, f)
		}
	}
	out.TargetFilters = m.TargetFilters
	return out
}

// The paper's mappings: filters on both sides, a concat Call, and
// Parents.salary + Parents2.salary over two copies of one relation.
func TestCompiledKernelsMatchReferenceOnPaperMappings(t *testing.T) {
	in := paperdb.Instance()
	cases := []struct {
		m   *core.Mapping
		old []string
	}{
		{paperdb.Section2Mapping(), []string{"Children", "Parents2", "PhoneDir"}},
		{paperdb.Example315Mapping(), []string{"Children", "Parents", "PhoneDir"}},
		{paperdb.Figure6G(), []string{"Children", "Parents"}},
		{paperdb.FamilyIncomeMapping(), []string{"Children", "Parents"}},
	}
	var cov coverage
	for _, c := range cases {
		checkKernels(t, c.m.Name, c.m, restrict(c.m, c.old...), in, &cov)
	}
	cov.check(t)
}

// nullHeavy copies an instance, nulling each non-key value with
// probability p and a key with probability p/2 (never a whole tuple:
// D(G) assumes no all-null source tuples).
func nullHeavy(in *relation.Instance, p float64, rng *rand.Rand) *relation.Instance {
	out := relation.NewInstance(in.Schema)
	for _, name := range in.Names() {
		src := in.Relation(name)
		r := relation.New(name, src.Scheme())
		for _, tp := range src.Tuples() {
			vals := make([]value.Value, src.Scheme().Arity())
			live := 0
			for i := range vals {
				vals[i] = tp.At(i)
				q := p
				if src.Scheme().Name(i) == name+".k" {
					q = p / 2
				}
				if rng.Float64() < q {
					vals[i] = value.Null
				}
				if !vals[i].IsNull() {
					live++
				}
			}
			if live == 0 {
				vals[0] = tp.At(0)
			}
			r.AddValues(vals...)
		}
		out.MustAdd(r)
	}
	return out
}

// randomMapping gives a generated case expression and Call
// correspondences, a correspondence outside the target relation, a
// repeated target attribute (the later one wins), and source and
// target filters, all drawn from rng over the case's nodes.
func randomMapping(c datagen.Case, rng *rand.Rand) *core.Mapping {
	nodes := c.Graph.Nodes()
	sort.Strings(nodes)
	pick := func() string { return nodes[rng.Intn(len(nodes))] }
	col := func() string {
		n := pick()
		if rng.Intn(3) == 0 && n != "Fact" {
			return n + ".k"
		}
		return n + ".v"
	}
	attrs := []schema.Attribute{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}, {Name: "e"}}
	target := schema.NewRelation("T", attrs...)
	m := core.NewMapping("random", target)
	m.Graph = c.Graph
	exprs := []string{
		"%s",
		"%s + %s",
		"concat(%s, %s)",
		"coalesce(%s, %s)",
		"abs(%s - %s)",
		"%s * 2",
	}
	for _, a := range attrs {
		if rng.Intn(5) == 0 {
			continue // unmapped: always null
		}
		f := exprs[rng.Intn(len(exprs))]
		var e expr.Expr
		switch countVerbs(f) {
		case 1:
			e = expr.MustParse(fmt.Sprintf(f, col()))
		default:
			e = expr.MustParse(fmt.Sprintf(f, col(), col()))
		}
		m.Corrs = append(m.Corrs, core.FromExpr(e, schema.Col("T", a.Name)))
	}
	m.Corrs = append(m.Corrs,
		core.Identity(col(), schema.Col("Other", "a")),
		core.Identity(col(), schema.Col("T", attrs[rng.Intn(len(attrs))].Name)))
	sources := []string{
		"%s IS NOT NULL",
		"%s < 20 OR %s IS NULL",
		"NOT (%s = %s)",
		"%s BETWEEN 1 AND 40",
		"%s IN (1, 2, 3, 5, 8, 13)",
	}
	for i := rng.Intn(3); i > 0; i-- {
		f := sources[rng.Intn(len(sources))]
		if countVerbs(f) == 1 {
			m.SourceFilters = append(m.SourceFilters, expr.MustParse(fmt.Sprintf(f, col())))
		} else {
			m.SourceFilters = append(m.SourceFilters, expr.MustParse(fmt.Sprintf(f, col(), col())))
		}
	}
	targets := []string{"T.a IS NOT NULL", "T.b > 3 OR T.c IS NULL", "T.d <> T.e", "T.x IS NULL"}
	for i := rng.Intn(3); i > 0; i-- {
		m.TargetFilters = append(m.TargetFilters, expr.MustParse(targets[rng.Intn(len(targets))]))
	}
	return m
}

func countVerbs(f string) int {
	n := 0
	for i := 0; i+1 < len(f); i++ {
		if f[i] == '%' && f[i+1] == 's' {
			n++
		}
	}
	return n
}

// Randomized chains and stars with NULL-heavy rows.
func TestCompiledKernelsMatchReferenceOnGeneratedCases(t *testing.T) {
	var cov coverage
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var c datagen.Case
		var sub []string
		if seed%2 == 0 {
			k := 2 + rng.Intn(3)
			c = datagen.Chain(datagen.ChainSpec{Relations: k, Rows: 15 + rng.Intn(25), KeySpace: 6 + rng.Intn(10), MatchProb: 0.7, Seed: seed})
			sub = c.Graph.Nodes()[:k-1]
		} else {
			d := 2 + rng.Intn(2)
			c = datagen.Star(datagen.StarSpec{Dims: d, FactRows: 15 + rng.Intn(25), DimRows: 8 + rng.Intn(8), MatchProb: 0.7, Seed: seed})
			sub = []string{"Fact", "Dim0"}
		}
		c.Instance = nullHeavy(c.Instance, 0.3, rng)
		m := randomMapping(c, rng)
		checkKernels(t, fmt.Sprintf("seed %d", seed), m, restrict(m, sub...), c.Instance, &cov)
	}
	cov.check(t)
}
