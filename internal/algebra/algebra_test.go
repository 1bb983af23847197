package algebra

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"clio/internal/budget"
	"clio/internal/expr"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// testInstance builds a small Children/Parents/PhoneDir instance.
func testInstance() *relation.Instance {
	sch := schema.NewDatabase()
	sch.MustAddRelation(schema.NewRelation("Children",
		schema.Attribute{Name: "ID", Type: value.KindString},
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "age", Type: value.KindInt},
		schema.Attribute{Name: "mid", Type: value.KindString},
		schema.Attribute{Name: "fid", Type: value.KindString},
	))
	sch.MustAddRelation(schema.NewRelation("Parents",
		schema.Attribute{Name: "ID", Type: value.KindString},
		schema.Attribute{Name: "affiliation", Type: value.KindString},
	))
	sch.MustAddRelation(schema.NewRelation("PhoneDir",
		schema.Attribute{Name: "ID", Type: value.KindString},
		schema.Attribute{Name: "number", Type: value.KindString},
	))
	in := relation.NewInstance(sch)

	c := in.NewRelationFor("Children")
	c.AddRow("001", "Ann", "9", "100", "101")
	c.AddRow("002", "Maya", "6", "102", "103")
	c.AddRow("004", "Bo", "5", "100", "-") // no father
	in.MustAdd(c)

	p := in.NewRelationFor("Parents")
	p.AddRow("100", "IBM")
	p.AddRow("101", "UofT")
	p.AddRow("102", "Acta")
	p.AddRow("103", "IBM")
	p.AddRow("205", "Sun") // no children
	in.MustAdd(p)

	ph := in.NewRelationFor("PhoneDir")
	ph.AddRow("100", "555-0100")
	ph.AddRow("102", "555-0102")
	ph.AddRow("205", "555-0205")
	in.MustAdd(ph)
	return in
}

func mustEval(t *testing.T, n Node, in *relation.Instance) *relation.Relation {
	t.Helper()
	r, err := n.Eval(in)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return r
}

func TestScan(t *testing.T) {
	in := testInstance()
	r := mustEval(t, NewScan("Children", ""), in)
	if r.Len() != 3 || r.Scheme().Name(0) != "Children.ID" {
		t.Errorf("scan wrong: %v", r)
	}
	// Aliased scan renames qualifiers.
	r2 := mustEval(t, NewScan("Parents", "Parents2"), in)
	if r2.Scheme().Name(0) != "Parents2.ID" {
		t.Errorf("aliased scan scheme: %v", r2.Scheme())
	}
	if got := NewScan("Parents", "Parents2").SQL(); got != "Parents AS Parents2" {
		t.Errorf("scan SQL = %q", got)
	}
	if got := NewScan("Parents", "").SQL(); got != "Parents" {
		t.Errorf("scan SQL = %q", got)
	}
	if _, err := (Scan{Base: "Nope"}).Eval(in); err == nil {
		t.Error("scanning unknown relation should error")
	}
}

func TestSelect(t *testing.T) {
	in := testInstance()
	n := Select{Child: NewScan("Children", ""), Pred: expr.MustParse("Children.age < 7")}
	r := mustEval(t, n, in)
	if r.Len() != 2 {
		t.Errorf("select len = %d, want 2", r.Len())
	}
	// Null predicate result drops the tuple: Bo has null fid.
	n2 := Select{Child: NewScan("Children", ""), Pred: expr.MustParse("Children.fid = 101")}
	if got := mustEval(t, n2, in).Len(); got != 1 {
		t.Errorf("select on fid len = %d, want 1", got)
	}
	if !strings.Contains(n.SQL(), "WHERE Children.age < 7") {
		t.Errorf("select SQL = %q", n.SQL())
	}
}

func TestProject(t *testing.T) {
	in := testInstance()
	n := Project{
		Name:  "Kids",
		Child: NewScan("Children", ""),
		Cols: []OutputCol{
			{Name: "Kids.ID", Expr: expr.Col{Name: "Children.ID"}},
			{Name: "Kids.nextAge", Expr: expr.MustParse("Children.age + 1")},
		},
	}
	r := mustEval(t, n, in)
	if r.Scheme().Name(1) != "Kids.nextAge" {
		t.Errorf("project scheme: %v", r.Scheme())
	}
	if r.At(0).Get("Kids.nextAge").IntVal() != 10 {
		t.Errorf("computed column wrong: %v", r.At(0))
	}
	if !strings.Contains(n.SQL(), "AS nextAge") {
		t.Errorf("project SQL = %q", n.SQL())
	}
}

func TestInnerJoin(t *testing.T) {
	in := testInstance()
	n := Join{
		Kind: InnerJoin,
		L:    NewScan("Children", ""),
		R:    NewScan("Parents", ""),
		On:   expr.Equals("Children.mid", "Parents.ID"),
	}
	r := mustEval(t, n, in)
	if r.Len() != 3 {
		t.Fatalf("inner join len = %d, want 3:\n%v", r.Len(), r)
	}
	for _, tp := range r.Tuples() {
		if !tp.Get("Children.mid").Equal(tp.Get("Parents.ID")) {
			t.Errorf("join predicate violated: %v", tp)
		}
	}
	if !strings.Contains(n.SQL(), "Children JOIN Parents ON Children.mid = Parents.ID") {
		t.Errorf("join SQL = %q", n.SQL())
	}
}

func TestLeftJoin(t *testing.T) {
	in := testInstance()
	n := Join{
		Kind: LeftJoin,
		L:    NewScan("Children", ""),
		R:    NewScan("Parents", ""),
		On:   expr.Equals("Children.fid", "Parents.ID"),
	}
	r := mustEval(t, n, in)
	// Ann and Maya match; Bo has null fid → padded.
	if r.Len() != 3 {
		t.Fatalf("left join len = %d:\n%v", r.Len(), r)
	}
	var boSeen bool
	for _, tp := range r.Tuples() {
		if tp.Get("Children.name").Str() == "Bo" {
			boSeen = true
			if !tp.Get("Parents.ID").IsNull() {
				t.Errorf("Bo should be padded: %v", tp)
			}
		}
	}
	if !boSeen {
		t.Error("left join lost unmatched left tuple")
	}
}

func TestRightAndFullJoin(t *testing.T) {
	in := testInstance()
	right := Join{
		Kind: RightJoin,
		L:    NewScan("Children", ""),
		R:    NewScan("Parents", ""),
		On:   expr.Equals("Children.mid", "Parents.ID"),
	}
	r := mustEval(t, right, in)
	// 3 matches + unmatched parents 101, 103, 205.
	if r.Len() != 6 {
		t.Fatalf("right join len = %d:\n%v", r.Len(), r)
	}
	full := Join{
		Kind: FullJoin,
		L:    NewScan("Children", ""),
		R:    NewScan("Parents", ""),
		On:   expr.Equals("Children.fid", "Parents.ID"),
	}
	f := mustEval(t, full, in)
	// Matches: Ann-101, Maya-103. Unmatched left: Bo. Unmatched right:
	// 100, 102, 205.
	if f.Len() != 6 {
		t.Fatalf("full join len = %d:\n%v", f.Len(), f)
	}
}

func TestJoinNullsNeverMatch(t *testing.T) {
	in := testInstance()
	// Bo's fid is null; a parent with null ID would not match either.
	n := Join{
		Kind: InnerJoin,
		L:    NewScan("Children", ""),
		R:    NewScan("Parents", ""),
		On:   expr.Equals("Children.fid", "Parents.ID"),
	}
	r := mustEval(t, n, in)
	for _, tp := range r.Tuples() {
		if tp.Get("Children.fid").IsNull() {
			t.Errorf("null join key matched: %v", tp)
		}
	}
}

func TestJoinResidualPredicate(t *testing.T) {
	in := testInstance()
	n := Join{
		Kind: InnerJoin,
		L:    NewScan("Children", ""),
		R:    NewScan("Parents", ""),
		On:   expr.MustParse("Children.mid = Parents.ID AND Children.age < 7"),
	}
	r := mustEval(t, n, in)
	if r.Len() != 2 {
		t.Fatalf("join with residual len = %d, want 2:\n%v", r.Len(), r)
	}
}

func TestNestedLoopJoin(t *testing.T) {
	in := testInstance()
	// Non-equi predicate exercises the nested-loop path.
	n := Join{
		Kind: InnerJoin,
		L:    NewScan("Children", ""),
		R:    NewScan("Parents", ""),
		On:   expr.MustParse("Children.age < 7 AND Parents.affiliation = 'IBM'"),
	}
	r := mustEval(t, n, in)
	// Children Maya, Bo × parents 100, 103.
	if r.Len() != 4 {
		t.Fatalf("nested loop len = %d:\n%v", r.Len(), r)
	}
}

func TestHashAndNestedLoopAgree(t *testing.T) {
	// Differential test on random data.
	rng := rand.New(rand.NewSource(5))
	sch := schema.NewDatabase()
	sch.MustAddRelation(schema.NewRelation("A", schema.Attribute{Name: "k", Type: value.KindInt}, schema.Attribute{Name: "x", Type: value.KindInt}))
	sch.MustAddRelation(schema.NewRelation("B", schema.Attribute{Name: "k", Type: value.KindInt}, schema.Attribute{Name: "y", Type: value.KindInt}))
	for trial := 0; trial < 50; trial++ {
		in := relation.NewInstance(sch)
		a := in.NewRelationFor("A")
		b := in.NewRelationFor("B")
		for i := 0; i < rng.Intn(20); i++ {
			a.AddValues(randKey(rng), value.Int(int64(i)))
		}
		for i := 0; i < rng.Intn(20); i++ {
			b.AddValues(randKey(rng), value.Int(int64(i)))
		}
		in.MustAdd(a)
		in.MustAdd(b)
		for _, kind := range []JoinKind{InnerJoin, LeftJoin, RightJoin, FullJoin} {
			// Equality predicate → hash path.
			hash := JoinRelations(kind, a, b, expr.Equals("A.k", "B.k"))
			// Same predicate voided of Col=Col shape → nested loop.
			nl := JoinRelations(kind, a, b, expr.MustParse("A.k + 0 = B.k"))
			if !hash.EqualSet(nl) {
				t.Fatalf("trial %d kind %v: hash and nested loop disagree\nhash:\n%v\nnl:\n%v", trial, kind, hash, nl)
			}
		}
	}
}

func randKey(rng *rand.Rand) value.Value {
	if rng.Intn(5) == 0 {
		return value.Null
	}
	return value.Int(int64(rng.Intn(5)))
}

func TestCross(t *testing.T) {
	in := testInstance()
	n := Cross{L: NewScan("Children", ""), R: NewScan("PhoneDir", "")}
	r := mustEval(t, n, in)
	if r.Len() != 9 {
		t.Errorf("cross len = %d, want 9", r.Len())
	}
	if !strings.Contains(n.SQL(), "CROSS JOIN") {
		t.Errorf("cross SQL = %q", n.SQL())
	}
}

// A cross product under a budget it cannot fit fails at its first
// refused output batch: it never lists or materializes the |L|×|R|
// pairs first, so what it allocates is bounded by one batch.
func TestCrossRefusedAtFirstBatch(t *testing.T) {
	const n = 1000 // a million pairs
	in := relation.NewInstance(nil)
	for _, name := range []string{"L", "R"} {
		r := relation.New(name, relation.NewScheme(name+".k", name+".v"))
		for i := 0; i < n; i++ {
			r.AddValues(value.Int(int64(i)), value.Int(int64(i)))
		}
		in.MustAdd(r)
	}
	tr := budget.NewTracker(budget.Budget{MaxRows: 10})
	ctx := budget.With(context.Background(), tr)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	it, err := Open(ctx, Cross{L: NewScan("L", ""), R: NewScan("R", "")}, in)
	if err != nil {
		t.Fatal(err)
	}
	_, err = it.NextBatch()
	it.Close()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("first batch returned %v, want a budget refusal", err)
	}
	if tr.Rows() != 0 {
		t.Errorf("refused batch left %d rows charged", tr.Rows())
	}
	// One batch of BatchSize pairs over four int columns is a few tens
	// of KiB; listing the pairs alone would take 8 MB.
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("refused cross product allocated %d bytes, want at most one batch's worth", got)
	}
}

func TestDistinctNode(t *testing.T) {
	in := testInstance()
	n := Distinct{Child: Project{
		Name:  "Aff",
		Child: NewScan("Parents", ""),
		Cols:  []OutputCol{{Name: "affiliation", Expr: expr.Col{Name: "Parents.affiliation"}}},
	}}
	r := mustEval(t, n, in)
	if r.Len() != 4 { // IBM, UofT, Acta, Sun
		t.Errorf("distinct len = %d, want 4:\n%v", r.Len(), r)
	}
}

func TestMaterialized(t *testing.T) {
	in := testInstance()
	r := in.Relation("Children")
	m := Materialized{Label: "D(G)", Rel: r}
	got := mustEval(t, m, in)
	if got != r {
		t.Error("materialized should return wrapped relation")
	}
	if m.SQL() != "D(G)" {
		t.Errorf("materialized SQL = %q", m.SQL())
	}
	if (Materialized{Rel: r}).SQL() != "Children" {
		t.Error("materialized SQL fallback wrong")
	}
}

func TestSplitEquiConjuncts(t *testing.T) {
	ls := relation.NewScheme("A.x", "A.y")
	rs := relation.NewScheme("B.x", "B.y")
	l, r, res := SplitEquiConjuncts(expr.MustParse("A.x = B.x AND B.y = A.y AND A.x < 5"), ls, rs)
	if len(l) != 2 || len(r) != 2 {
		t.Fatalf("equi split: l=%v r=%v", l, r)
	}
	if l[0] != "A.x" || r[0] != "B.x" || l[1] != "A.y" || r[1] != "B.y" {
		t.Errorf("alignment wrong: l=%v r=%v", l, r)
	}
	if res == nil || !strings.Contains(res.String(), "A.x < 5") {
		t.Errorf("residual = %v", res)
	}
	// Fully-equi predicate has nil residual.
	_, _, res2 := SplitEquiConjuncts(expr.Equals("A.x", "B.x"), ls, rs)
	if res2 != nil {
		t.Errorf("residual should be nil, got %v", res2)
	}
	// Same-side equality is residual, not hash condition.
	l3, _, res3 := SplitEquiConjuncts(expr.MustParse("A.x = A.y"), ls, rs)
	if len(l3) != 0 || res3 == nil {
		t.Error("same-side equality should be residual")
	}
}

func TestJoinKindString(t *testing.T) {
	if InnerJoin.String() != "JOIN" || LeftJoin.String() != "LEFT JOIN" ||
		RightJoin.String() != "RIGHT JOIN" || FullJoin.String() != "FULL JOIN" {
		t.Error("JoinKind.String wrong")
	}
	if JoinKind(9).String() != "JOIN?" {
		t.Error("unknown kind rendering wrong")
	}
}

func TestErrorPropagation(t *testing.T) {
	in := testInstance()
	bad := Scan{Base: "Nope"}
	nodes := []Node{
		Select{Child: bad, Pred: expr.MustParse("TRUE")},
		Project{Name: "x", Child: bad},
		Join{Kind: InnerJoin, L: bad, R: NewScan("Parents", ""), On: expr.MustParse("TRUE")},
		Join{Kind: InnerJoin, L: NewScan("Parents", ""), R: bad, On: expr.MustParse("TRUE")},
		Cross{L: bad, R: NewScan("Parents", "")},
		Cross{L: NewScan("Parents", ""), R: bad},
		Distinct{Child: bad},
	}
	for i, n := range nodes {
		if _, err := n.Eval(in); err == nil {
			t.Errorf("node %d should propagate scan error", i)
		}
	}
}
