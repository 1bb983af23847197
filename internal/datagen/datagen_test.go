package datagen

import (
	"context"
	"testing"

	"clio/internal/fd"
)

func TestChainDeterminism(t *testing.T) {
	spec := ChainSpec{Relations: 3, Rows: 20, KeySpace: 5, MatchProb: 0.8, Seed: 7}
	a := Chain(spec)
	b := Chain(spec)
	for _, name := range a.Instance.Names() {
		if !a.Instance.Relation(name).EqualSet(b.Instance.Relation(name)) {
			t.Errorf("relation %s differs between runs", name)
		}
	}
}

func TestChainShape(t *testing.T) {
	c := Chain(ChainSpec{Relations: 4, Rows: 10, KeySpace: 3, MatchProb: 1, Seed: 1})
	if c.Graph.NodeCount() != 4 || !c.Graph.IsTree() {
		t.Errorf("chain graph wrong: %v", c.Graph)
	}
	if len(c.Instance.Names()) != 4 {
		t.Errorf("relations = %v", c.Instance.Names())
	}
	if err := c.Mapping.Validate(c.Instance); err != nil {
		t.Fatal(err)
	}
	// The mapping evaluates without error and produces rows.
	res, err := c.Mapping.Evaluate(c.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Error("chain mapping produced nothing")
	}
	if err := c.Instance.Schema.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChainZeroMatchProb(t *testing.T) {
	// With no matches, D(G) is just the padded singletons.
	c := Chain(ChainSpec{Relations: 3, Rows: 4, KeySpace: 4, MatchProb: 0, Seed: 2})
	d, err := fd.Compute(context.Background(), c.Graph, c.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 12 {
		t.Errorf("|D(G)| = %d, want 12 singleton associations", d.Len())
	}
}

func TestChainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero relations should panic")
		}
	}()
	Chain(ChainSpec{Relations: 0})
}

func TestStarShape(t *testing.T) {
	c := Star(StarSpec{Dims: 3, FactRows: 10, DimRows: 5, MatchProb: 0.9, Seed: 3})
	if c.Graph.NodeCount() != 4 || !c.Graph.IsTree() {
		t.Errorf("star graph wrong: %v", c.Graph)
	}
	if err := c.Mapping.Validate(c.Instance); err != nil {
		t.Fatal(err)
	}
	d, err := fd.Compute(context.Background(), c.Graph, c.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 {
		t.Error("star D(G) empty")
	}
}

func TestKnowledgeGenerator(t *testing.T) {
	k := Knowledge(KnowledgeSpec{Relations: 6, EdgesPerNode: 2, Seed: 4})
	if len(k.Edges()) == 0 {
		t.Fatal("no edges generated")
	}
	// Determinism.
	k2 := Knowledge(KnowledgeSpec{Relations: 6, EdgesPerNode: 2, Seed: 4})
	if len(k.Edges()) != len(k2.Edges()) {
		t.Error("knowledge generation not deterministic")
	}
}

func TestWideInstance(t *testing.T) {
	in := WideInstance(3, 4, 50, 10, 5)
	if len(in.Names()) != 3 {
		t.Errorf("relations = %v", in.Names())
	}
	if in.TotalTuples() != 150 {
		t.Errorf("tuples = %d", in.TotalTuples())
	}
	if err := in.Schema.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestECommerce(t *testing.T) {
	in := ECommerce(ECommerceSpec{
		Customers: 10, Orders: 30, LinesPerOrder: 2, Products: 8,
		ShipRate: 0.5, Seed: 1,
	})
	if err := in.Schema.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Customers", "Orders", "OrderLines", "Products", "Shipments"} {
		if in.Relation(name) == nil {
			t.Fatalf("relation %s missing", name)
		}
	}
	if in.Relation("Customers").Len() != 10 || in.Relation("Orders").Len() != 30 {
		t.Error("row counts wrong")
	}
	// Declared FKs hold on the generated data.
	for _, fk := range in.Schema.ForeignKs {
		from := in.Relation(fk.FromRelation)
		to := in.Relation(fk.ToRelation)
		keys := map[string]bool{}
		toAttr := fk.ToRelation + "." + fk.ToAttrs[0]
		for _, tp := range to.Tuples() {
			keys[tp.Get(toAttr).Key()] = true
		}
		pos := from.Scheme().Positions(fk.FromRelation + "." + fk.FromAttrs[0])
		for _, tp := range from.Tuples() {
			v := tp.At(pos[0])
			if !v.IsNull() && !keys[v.Key()] {
				t.Fatalf("FK %s violated: %v", fk.Name, tp)
			}
		}
	}
	// ShipRate is roughly respected.
	ships := in.Relation("Shipments").Len()
	if ships == 0 || ships == 30 {
		t.Errorf("shipments = %d; want a strict subset of orders", ships)
	}
	// Determinism.
	in2 := ECommerce(ECommerceSpec{
		Customers: 10, Orders: 30, LinesPerOrder: 2, Products: 8,
		ShipRate: 0.5, Seed: 1,
	})
	for _, name := range in.Names() {
		if !in.Relation(name).EqualSet(in2.Relation(name)) {
			t.Errorf("relation %s not deterministic", name)
		}
	}
}

func TestStarNullKeys(t *testing.T) {
	// Low MatchProb leaves null fact keys, exercising padding.
	c := Star(StarSpec{Dims: 2, FactRows: 20, DimRows: 5, MatchProb: 0.3, Seed: 9})
	nulls := 0
	fact := c.Instance.Relation("Fact")
	for _, tp := range fact.Tuples() {
		if tp.Get("Fact.k0").IsNull() {
			nulls++
		}
	}
	if nulls == 0 {
		t.Error("expected some null fact keys at MatchProb 0.3")
	}
	d, err := fd.Compute(context.Background(), c.Graph, c.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() < fact.Len() {
		t.Error("D(G) should cover every fact row")
	}
}
