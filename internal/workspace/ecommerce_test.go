package workspace

import (
	"context"
	"strings"
	"testing"

	"clio/internal/core"
	"clio/internal/datagen"
	"clio/internal/expr"
	"clio/internal/schema"
	"clio/internal/value"
)

// TestECommerceEndToEnd drives a full mapping session on the
// e-commerce workload: build a denormalized SalesReport target from
// five source relations through correspondences, walks, and filters,
// all via the workspace API.
func TestECommerceEndToEnd(t *testing.T) {
	in := datagen.ECommerce(datagen.ECommerceSpec{
		Customers: 20, Orders: 60, LinesPerOrder: 2, Products: 15,
		ShipRate: 0.6, Seed: 42,
	})
	if err := in.Schema.Validate(); err != nil {
		t.Fatal(err)
	}
	target := schema.NewRelation("SalesReport",
		schema.Attribute{Name: "order"},
		schema.Attribute{Name: "customer"},
		schema.Attribute{Name: "country"},
		schema.Attribute{Name: "product"},
		schema.Attribute{Name: "revenue"},
		schema.Attribute{Name: "carrier"},
	)
	tl := New(context.Background(), in, target, false)
	if err := tl.Start("sales"); err != nil {
		t.Fatal(err)
	}
	steps := []core.Correspondence{
		core.Identity("Orders.oid", schema.Col("SalesReport", "order")),
		core.Identity("Customers.name", schema.Col("SalesReport", "customer")),
		core.Identity("Customers.country", schema.Col("SalesReport", "country")),
		core.Identity("Products.title", schema.Col("SalesReport", "product")),
		core.FromExpr(expr.MustParse("OrderLines.qty * Products.price"),
			schema.Col("SalesReport", "revenue")),
		core.Identity("Shipments.carrier", schema.Col("SalesReport", "carrier")),
	}
	for _, c := range steps {
		if err := tl.AddCorrespondence(context.Background(), c); err != nil {
			t.Fatalf("corr %v: %v", c, err)
		}
		// Single FK paths: exactly one scenario each time.
		if got := len(tl.Workspaces()); got != 1 {
			notes := []string{}
			for _, w := range tl.Workspaces() {
				notes = append(notes, w.Note)
			}
			t.Fatalf("corr %v produced %d scenarios: %v", c, got, notes)
		}
	}
	if err := tl.AddTargetFilter(context.Background(), expr.MustParse("SalesReport.order IS NOT NULL")); err != nil {
		t.Fatal(err)
	}
	m := tl.Active().Mapping
	if err := m.Validate(in); err != nil {
		t.Fatal(err)
	}
	// The graph is the expected 5-node tree.
	if m.Graph.NodeCount() != 5 || !m.Graph.IsTree() {
		t.Fatalf("graph:\n%v", m.Graph)
	}
	view, err := tl.TargetView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() == 0 {
		t.Fatal("empty sales report")
	}
	// Revenue is qty*price wherever a product is present.
	for _, tp := range view.Tuples() {
		rev := tp.Get("SalesReport.revenue")
		if tp.Get("SalesReport.product").IsNull() != rev.IsNull() {
			t.Errorf("revenue/product nullness mismatch: %v", tp)
		}
		if !rev.IsNull() && rev.IntVal() <= 0 {
			t.Errorf("non-positive revenue: %v", tp)
		}
	}
	// Unshipped orders appear with null carrier (left-join semantics);
	// with ShipRate 0.6 both kinds must exist.
	withCarrier, without := 0, 0
	for _, tp := range view.Tuples() {
		if tp.Get("SalesReport.carrier").IsNull() {
			without++
		} else {
			withCarrier++
		}
	}
	if withCarrier == 0 || without == 0 {
		t.Errorf("carrier split = %d/%d; want both populations", withCarrier, without)
	}
	// The illustration demonstrates the unshipped case too.
	il := tl.Active().Illustration
	if ok, _ := il.IsSufficient(in); !ok {
		t.Error("illustration should be sufficient")
	}
	// Generated SQL joins all five relations from Orders.
	root, ok := m.RequiredRoot()
	if !ok {
		t.Fatal("root should be forced by the target filter")
	}
	sql, err := m.ViewSQL(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"Customers", "OrderLines", "Products", "Shipments"} {
		if !strings.Contains(sql, "LEFT JOIN "+rel) {
			t.Errorf("SQL missing join to %s:\n%s", rel, sql)
		}
	}
	// And the left-join view agrees with the D(G) semantics.
	direct, err := m.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	viaLJ, err := m.EvaluateViaLeftJoins(root, in)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.EqualSet(viaLJ) {
		t.Error("left-join view disagrees with mapping semantics")
	}
	// Spot value sanity: country codes come from the generator's list.
	valid := map[string]bool{"CA": true, "US": true, "DE": true, "JP": true, "BR": true}
	for _, tp := range view.Tuples() {
		if c := tp.Get("SalesReport.country"); !c.IsNull() && !valid[c.Str()] {
			t.Errorf("unexpected country %v", c)
		}
	}
	_ = value.Null
}
