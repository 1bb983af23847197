package render

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"clio/internal/core"
	"clio/internal/paperdb"
	"clio/internal/relation"
)

func TestTable(t *testing.T) {
	in := paperdb.Instance()
	s := Table(in.Relation("Children"), Options{})
	for _, want := range []string{"Children", "Children.ID", "Maya", "002", "|"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	// Nulls render as "-".
	if !strings.Contains(s, "- ") {
		t.Errorf("nulls should render as -:\n%s", s)
	}
}

func TestTableUnqualify(t *testing.T) {
	in := paperdb.Instance()
	s := Table(in.Relation("Children"), Options{Unqualify: true})
	if strings.Contains(s, "Children.ID") {
		t.Errorf("headers should be unqualified:\n%s", s)
	}
	if !strings.Contains(s, "| ID") {
		t.Errorf("unqualified header missing:\n%s", s)
	}
}

func TestTableMaxRowsAndMarker(t *testing.T) {
	in := paperdb.Instance()
	s := Table(in.Relation("Parents"), Options{MaxRows: 3})
	if !strings.Contains(s, "more row(s)") {
		t.Errorf("truncation footer missing:\n%s", s)
	}
	marked := Table(in.Relation("Children"), Options{
		Marker: func(tp relation.Tuple) string {
			if tp.Get("Children.name").String() == "Maya" {
				return "→"
			}
			return ""
		},
	})
	if !strings.Contains(marked, "→") {
		t.Errorf("marker missing:\n%s", marked)
	}
}

func TestIllustration(t *testing.T) {
	in := paperdb.Instance()
	m := paperdb.Example315Mapping()
	il, err := core.SufficientIllustration(context.Background(), m, in)
	if err != nil {
		t.Fatal(err)
	}
	s := Illustration(il, paperdb.Abbrev())
	for _, want := range []string{"illustration of example3.15", "cov", "=>", "CPPhS"} {
		if !strings.Contains(s, want) {
			t.Errorf("illustration missing %q:\n%s", want, s)
		}
	}
	empty := Illustration(core.Illustration{Mapping: m}, nil)
	if !strings.Contains(empty, "no examples") {
		t.Error("empty illustration rendering wrong")
	}
}

func TestMappingAndScenarios(t *testing.T) {
	m := paperdb.Section2Mapping()
	s := Mapping(m)
	if !strings.Contains(s, "SQL:") || !strings.Contains(s, "D(G)") {
		t.Errorf("mapping rendering missing SQL:\n%s", s)
	}
	sc := Scenarios([]string{"father", "mother"}, []string{"a", "b\n"})
	if !strings.Contains(sc, "Scenario 1: father") || !strings.Contains(sc, "Scenario 2: mother") {
		t.Errorf("scenarios wrong:\n%s", sc)
	}
}

func TestDot(t *testing.T) {
	m := paperdb.Section2Mapping()
	s := Dot(m.Graph, "G")
	for _, want := range []string{
		`graph "G" {`,
		`"Parents2" [shape=box, style=dashed`,
		`"Children" -- "Parents" [label="Children.fid = Parents.ID"]`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("dot missing %q:\n%s", want, s)
		}
	}
}

func TestWriteHTML(t *testing.T) {
	in := paperdb.Instance()
	m := paperdb.Example315Mapping()
	il, err := core.SufficientIllustration(context.Background(), m, in)
	if err != nil {
		t.Fatal(err)
	}
	view, err := m.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err = WriteHTML(&b, HTMLReport{
		Title:        "Kids session",
		Mapping:      m,
		Illustration: il,
		TargetView:   view,
		Abbrev:       paperdb.Abbrev(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := b.String()
	for _, want := range []string{
		"<title>Kids session</title>",
		"populates Kids",
		"CPPhS",
		`class="pos"`,
		`class="neg"`,
		"Target view",
		"FROM D(G)",
		"Maya",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	// Empty report still renders.
	var b2 strings.Builder
	if err := WriteHTML(&b2, HTMLReport{Title: "empty", Mapping: core.NewMapping("e", paperdb.Kids())}); err != nil {
		t.Fatal(err)
	}
}

// cells renders every tuple of r, one display string per cell.
func cells(r *relation.Relation) [][]string {
	rows := make([][]string, r.Len())
	for i, tp := range r.Tuples() {
		rows[i] = make([]string, tp.Scheme().Arity())
		for j := range rows[i] {
			rows[i][j] = tp.At(j).String()
		}
	}
	return rows
}

// TableRows over cells rendered beforehand equals Table, for every
// option, on the Figure 1 Kids view and a kids view scaled up with
// generated children (nulls, empty and duplicate names included).
func TestTableRowsMatchesTable(t *testing.T) {
	m := paperdb.Example315Mapping()
	paperView, err := m.Evaluate(paperdb.Instance())
	if err != nil {
		t.Fatal(err)
	}
	in := paperdb.Instance()
	kids := in.Relation("Children")
	parents := []string{"100", "101", "102", "103", "104", "106", "107", "205", "-"}
	for i := 0; i < 300; i++ {
		name := []string{"", "Kid", "Ann", "-"}[i%4]
		kids.AddRow(fmt.Sprintf("k%04d", i), name, fmt.Sprint(4+i%6), parents[i%9], parents[(i*7)%9], "d1")
	}
	scaledView, err := m.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	marker := func(tp relation.Tuple) string {
		if tp.At(1).String() == "Ann" {
			return "→"
		}
		return ""
	}
	for _, v := range []*relation.Relation{paperView, scaledView, in.Relation("Children")} {
		for _, opt := range []Options{{}, {Unqualify: true}, {Unqualify: true, MaxRows: 3}, {MaxRows: 5000}, {Marker: marker, MaxRows: 7}} {
			if got, want := TableRows(v, cells(v), opt), Table(v, opt); got != want {
				t.Errorf("%s (%d rows) %+v: TableRows differs from Table:\n%s\nwant:\n%s", v.Name, v.Len(), opt, got, want)
			}
		}
	}
}
