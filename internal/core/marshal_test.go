package core

import (
	"strings"
	"testing"

	"clio/internal/expr"
	"clio/internal/schema"
)

func TestMappingJSONRoundTrip(t *testing.T) {
	in := fixtureInstance()
	m := fixtureMapping().
		WithSourceFilter(expr.MustParse("Orders.total > 10"))
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Human-readable: expressions appear in surface syntax.
	s := string(data)
	for _, want := range []string{
		`"Orders.cid = Customers.cid"`,
		`"Orders.oid -> Report.oid"`,
		`"Orders.total > 10"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %q:\n%s", want, s)
		}
	}
	back, err := UnmarshalMapping(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(in); err != nil {
		t.Fatal(err)
	}
	// Semantics preserved: same evaluation result.
	r1, err := m.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := back.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.EqualSet(r2) {
		t.Errorf("round-trip changed semantics:\n%v\nvs\n%v", r1, r2)
	}
	// Structure preserved: empty diff.
	if d := Diff(m, back); !d.Empty() {
		t.Errorf("round-trip structural diff:\n%s", d)
	}
}

func TestMappingJSONWithCopies(t *testing.T) {
	m := NewMapping("copies", targetRel())
	m.Graph.MustAddNode("Orders", "Orders")
	m.Graph.MustAddNode("Customers2", "Customers")
	m.Graph.MustAddEdge("Orders", "Customers2", expr.Equals("Orders.cid", "Customers2.cid"))
	m.Corrs = []Correspondence{Identity("Customers2.name", sCol("Report", "customer"))}
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalMapping(data)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := back.Graph.Node("Customers2")
	if !ok || n.Base != "Customers" {
		t.Errorf("copy lost: %v, %v", n, ok)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	bad := []string{
		`{not json`,
		`{}`,
		`{"target":{"name":"T","attrs":["a"]},"edges":[{"a":"X","b":"Y","pred":"(("}]}`,
		`{"target":{"name":"T","attrs":["a"]},"nodes":[{"name":"X","base":"X"}],"edges":[{"a":"X","b":"Z","pred":"X.a = Z.a"}]}`,
		`{"target":{"name":"T","attrs":["a"]},"correspondences":["no arrow"]}`,
		`{"target":{"name":"T","attrs":["a"]},"sourceFilters":["(("]}`,
		`{"target":{"name":"T","attrs":["a"]},"targetFilters":["(("]}`,
		// A repeated target attribute cannot form a target scheme.
		`{"target":{"name":"T","attrs":["a","a"]}}`,
	}
	for i, s := range bad {
		if _, err := UnmarshalMapping([]byte(s)); err == nil {
			t.Errorf("case %d should fail: %s", i, s)
		}
	}
}

func sCol(rel, attr string) schema.ColumnRef { return schema.Col(rel, attr) }
