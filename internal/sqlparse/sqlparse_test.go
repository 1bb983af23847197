package sqlparse

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"clio/internal/algebra"
	"clio/internal/core"
	"clio/internal/expr"
	"clio/internal/paperdb"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

func TestParseSelectBasic(t *testing.T) {
	q, err := ParseSelect(`
		SELECT Children.ID AS ID, Children.name AS name, concat(PhoneDir.type, PhoneDir.number) AS contactPh
		FROM Children
		LEFT JOIN Parents ON Children.mid = Parents.ID
		LEFT OUTER JOIN PhoneDir ON Parents.ID = PhoneDir.ID
		WHERE Children.ID IS NOT NULL;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 3 || q.Select[2].Alias != "contactPh" {
		t.Errorf("select = %v", q.Select)
	}
	if q.From.Base != "Children" || len(q.Joins) != 2 {
		t.Errorf("from/joins wrong: %+v", q)
	}
	if q.Joins[1].Kind != "LEFT JOIN" {
		t.Errorf("OUTER not normalized: %q", q.Joins[1].Kind)
	}
	if q.Where == nil || !strings.Contains(q.Where.String(), "IS NOT NULL") {
		t.Errorf("where = %v", q.Where)
	}
}

func TestParseSelectVariants(t *testing.T) {
	cases := []string{
		"SELECT a.b FROM R",
		"select a.b, a.c from R as S inner join T on S.x = T.x",
		"CREATE VIEW V AS SELECT a.b AS x FROM R JOIN S ON R.a = S.a WHERE R.a > 1",
		"SELECT R.x FROM R FULL JOIN S ON R.a = S.a",
		"SELECT R.x FROM R RIGHT JOIN S ON R.a = S.a",
		"SELECT R.a + 1 AS inc FROM R",
		"SELECT concat(R.a, 'FROM x, WHERE y') AS s FROM R", // keywords in string
	}
	for _, src := range cases {
		if _, err := ParseSelect(src); err != nil {
			t.Errorf("ParseSelect(%q): %v", src, err)
		}
	}
	bad := []string{
		"",
		"SELECT FROM R",
		"SELECT a.b",
		"SELECT a.b FROM R JOIN S",
		"SELECT a.b FROM R JOIN S ON",
		"SELECT a.b FROM R trailing garbage",
		"CREATE TABLE x",
		"CREATE VIEW V SELECT a.b FROM R",
		"SELECT (( FROM R",
	}
	for _, src := range bad {
		if _, err := ParseSelect(src); err == nil {
			t.Errorf("ParseSelect(%q) should fail", src)
		}
	}
}

func TestViewSQLRoundTrip(t *testing.T) {
	// The flagship round trip: the SQL Clio generates re-imports as a
	// mapping with identical semantics.
	in := paperdb.Instance()
	m := paperdb.Section2Mapping()
	root, _ := m.RequiredRoot()
	sql, err := m.ViewSQL(root)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ImportMapping(sql, in, "")
	if err != nil {
		t.Fatalf("importing generated SQL:\n%s\n%v", sql, err)
	}
	if back.Target.Name != "Kids" {
		t.Errorf("view name lost: %s", back.Target.Name)
	}
	if err := back.Validate(in); err != nil {
		t.Fatal(err)
	}
	want, err := m.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	// Compare on the mapped attributes (the original target also has
	// unmapped always-null columns).
	shared := got.Scheme().Names()
	if !want.Project(shared...).Distinct().EqualSet(got) {
		t.Errorf("round-trip changed semantics:\n%v\nvs\n%v",
			want.Project(shared...).Distinct().Sorted(), got.Sorted())
	}
	// The graph came back with the Parents2 copy.
	n, ok := back.Graph.Node("Parents2")
	if !ok || n.Base != "Parents" {
		t.Errorf("copy lost on import: %v %v", n, ok)
	}
}

// directPlan builds the statement's literal algebra plan for
// differential testing.
func directPlan(q *Query) algebra.Node {
	var node algebra.Node = algebra.NewScan(q.From.Base, q.From.Alias)
	for _, j := range q.Joins {
		kind := algebra.InnerJoin
		switch j.Kind {
		case "LEFT JOIN":
			kind = algebra.LeftJoin
		case "RIGHT JOIN":
			kind = algebra.RightJoin
		case "FULL JOIN":
			kind = algebra.FullJoin
		}
		node = algebra.Join{Kind: kind, L: node, R: algebra.NewScan(j.Table.Base, j.Table.Alias), On: j.On}
	}
	if q.Where != nil {
		node = algebra.Select{Child: node, Pred: q.Where}
	}
	var cols []algebra.OutputCol
	for _, s := range q.Select {
		cols = append(cols, algebra.OutputCol{Name: "T." + s.Alias, Expr: s.Expr})
	}
	return algebra.Distinct{Child: algebra.Project{Name: "T", Child: node, Cols: cols}}
}

func TestImportMatchesDirectEvaluation(t *testing.T) {
	// Randomized: INNER/LEFT chains over random data evaluate the same
	// through ImportMapping and through the literal plan.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		in := randInstance(rng, 3)
		kinds := []string{"JOIN", "LEFT JOIN"}
		j1 := kinds[rng.Intn(2)]
		j2 := kinds[rng.Intn(2)]
		sql := "SELECT R0.v AS a, R1.v AS b, R2.v AS c FROM R0 " +
			j1 + " R1 ON R0.k = R1.k " +
			j2 + " R2 ON R1.k = R2.k"
		if rng.Intn(2) == 0 {
			sql += " WHERE R0.v > 1"
		}
		q, err := ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ImportMapping(sql, in, "T")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(in); err != nil {
			t.Fatal(err)
		}
		got, err := m.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := directPlan(q).Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualSet(want) {
			t.Fatalf("trial %d (%s): import differs\ngot:\n%v\nwant:\n%v",
				trial, sql, got.Sorted(), want.Sorted())
		}
	}
}

func TestImportRejectsRightFull(t *testing.T) {
	in := randInstance(rand.New(rand.NewSource(1)), 2)
	for _, kind := range []string{"RIGHT JOIN", "FULL JOIN"} {
		sql := "SELECT R0.v AS a FROM R0 " + kind + " R1 ON R0.k = R1.k"
		if _, err := ImportMapping(sql, in, "T"); err == nil {
			t.Errorf("%s should be rejected by ImportMapping", kind)
		}
		// But the exact multi-mapping path handles it.
		q, err := ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		jq, err := ToJoinQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := core.RepresentJoinQuery(jq, in, "T")
		if err != nil {
			t.Fatal(err)
		}
		combined, err := core.CombineMappings(in, ms)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := core.EvaluateJoinQuery(jq, in)
		if err != nil {
			t.Fatal(err)
		}
		rename := map[string]string{}
		for _, qn := range direct.Scheme().Names() {
			rename[qn] = "T." + strings.ReplaceAll(qn, ".", "_")
		}
		if !combined.EqualSet(direct.Rename("T", rename)) {
			t.Errorf("%s: multi-mapping path differs", kind)
		}
	}
}

func TestToJoinQueryErrors(t *testing.T) {
	q := &Query{
		From:  TableRef{Base: "R0", Alias: "R0"},
		Joins: []JoinClause{{Kind: "JOIN", Table: TableRef{Base: "R1", Alias: "R1"}, On: expr.Equals("Zz.x", "R1.k")}},
	}
	if _, err := ToJoinQuery(q); err == nil {
		t.Error("dangling ON should fail")
	}
	if _, err := ToMapping(q, "T"); err == nil {
		t.Error("dangling ON should fail in ToMapping")
	}
	if _, err := RequiredCoverage(q); err == nil {
		t.Error("dangling ON should fail in RequiredCoverage")
	}
}

func randInstance(rng *rand.Rand, k int) *relation.Instance {
	sch := schema.NewDatabase()
	for i := 0; i < k; i++ {
		name := "R" + string(rune('0'+i))
		sch.MustAddRelation(schema.NewRelation(name,
			schema.Attribute{Name: "k", Type: value.KindInt},
			schema.Attribute{Name: "v", Type: value.KindInt}))
	}
	in := relation.NewInstance(sch)
	for i := 0; i < k; i++ {
		name := "R" + string(rune('0'+i))
		r := in.NewRelationFor(name)
		for j := 0; j < 1+rng.Intn(5); j++ {
			r.AddValues(value.Int(int64(rng.Intn(3))), value.Int(int64(rng.Intn(4))))
		}
		in.MustAdd(r)
	}
	return in
}

// A statement that names two tables with one alias is refused at parse
// time, with an error naming the alias: its coverage closure would
// cycle, and its join query would repeat an attribute in a scheme.
func TestParseSelectRejectsRepeatedAlias(t *testing.T) {
	const sql = "SELECT Children.ID FROM Children JOIN Parents ON Children.mid = Parents.ID JOIN Children ON Parents.ID = Children.fid"
	done := make(chan error, 1)
	go func() {
		_, err := ImportMapping(sql, paperdb.Instance(), "Kids")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), `"Children"`) {
			t.Fatalf("ImportMapping = %v, want an error naming the alias", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ImportMapping did not return within 2s")
	}
	if _, err := ParseSelect("SELECT X.a FROM R AS X JOIN S AS X ON X.a = X.b"); err == nil {
		t.Error("two tables aliased X parsed")
	}
}
