package fd_test

import (
	"context"
	"testing"

	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/graph"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// maintainShapes are the graphs FuzzMaintainRows draws from, over
// bases of two int columns k and v: a chain of 3, a star of 3 around a
// hub, a triangle, and two nodes over one base.
var maintainShapes = []struct {
	bases []string
	nodes [][2]string // name, base
	edges [][3]string // a, b, "a.col = b.col"
}{
	{[]string{"A", "B", "C"}, [][2]string{{"A", "A"}, {"B", "B"}, {"C", "C"}},
		[][3]string{{"A", "B", "A.v B.k"}, {"B", "C", "B.v C.k"}}},
	{[]string{"H", "X", "Y", "Z"}, [][2]string{{"H", "H"}, {"X", "X"}, {"Y", "Y"}, {"Z", "Z"}},
		[][3]string{{"H", "X", "H.k X.k"}, {"H", "Y", "H.v Y.k"}, {"H", "Z", "H.k Z.v"}}},
	{[]string{"A", "B", "C"}, [][2]string{{"A", "A"}, {"B", "B"}, {"C", "C"}},
		[][3]string{{"A", "B", "A.v B.k"}, {"B", "C", "B.v C.k"}, {"C", "A", "C.v A.k"}}},
	{[]string{"A", "B"}, [][2]string{{"A", "A"}, {"B1", "B"}, {"B2", "B"}},
		[][3]string{{"A", "B1", "A.v B1.k"}, {"B1", "B2", "B1.v B2.k"}}},
}

// maintainEdit is one decoded row edit: an insert of vals, or a delete
// of the row at index row (mod the base's length).
type maintainEdit struct {
	base string
	del  bool
	row  int
	vals []value.Value
}

// decodeMaintainCase turns fuzz bytes into a graph, an instance and a
// sequence of row edits. data[0] picks the shape and data[1] the rows
// per base (0–4). Each row then takes two bytes, one per column (b%4:
// 0 is NULL, else Int(b%4-1)), so duplicates, NULL cells and all-NULL
// rows arise often. Each edit is an op byte — even: insert the two-cell
// row that follows, odd: delete the row the next byte indexes — whose
// remaining bits pick the base. At most 24 edits are decoded.
func decodeMaintainCase(data []byte) (*graph.QueryGraph, *relation.Instance, []maintainEdit) {
	if len(data) < 2 {
		return nil, nil, nil
	}
	shape := maintainShapes[int(data[0])%len(maintainShapes)]
	perBase := int(data[1]) % 5
	data = data[2:]
	cell := func(b byte) value.Value {
		if b%4 == 0 {
			return value.Null
		}
		return value.Int(int64(b%4 - 1))
	}
	sch := schema.NewDatabase()
	for _, b := range shape.bases {
		sch.MustAddRelation(schema.NewRelation(b,
			schema.Attribute{Name: "k", Type: value.KindInt},
			schema.Attribute{Name: "v", Type: value.KindInt}))
	}
	in := relation.NewInstance(sch)
	for _, b := range shape.bases {
		r := in.NewRelationFor(b)
		for i := 0; i < perBase && len(data) >= 2; i++ {
			r.AddValues(cell(data[0]), cell(data[1]))
			data = data[2:]
		}
		in.MustAdd(r)
	}
	g := graph.New()
	for _, n := range shape.nodes {
		g.MustAddNode(n[0], n[1])
	}
	for _, e := range shape.edges {
		var l, r string
		for i, c := range e[2] {
			if c == ' ' {
				l, r = e[2][:i], e[2][i+1:]
			}
		}
		g.MustAddEdge(e[0], e[1], expr.Equals(l, r))
	}
	var edits []maintainEdit
	for len(data) >= 2 && len(edits) < 24 {
		op := data[0]
		e := maintainEdit{base: shape.bases[int(op/2)%len(shape.bases)], del: op%2 == 1}
		if e.del {
			e.row = int(data[1])
			data = data[2:]
		} else if len(data) >= 3 {
			e.vals = []value.Value{cell(data[1]), cell(data[2])}
			data = data[3:]
		} else {
			break
		}
		edits = append(edits, e)
	}
	return g, in, edits
}

// FuzzMaintainRows drives row edits through fd.MaintainRows — the
// first seeded from the computed D(G), the rest on the materialization
// it returns — and requires the maintained D(G) to equal
// FullDisjunctionNaive of the edited instance, byte for byte, after
// every edit.
//
// Cells are written below as v+1 (0 is NULL). Each seed fails one way
// of getting the delete's re-derivation wrong.
func FuzzMaintainRows(f *testing.F) {
	// Chain, A = {(0,1), (0,NULL)}: deleting (0,1) must re-derive the
	// row it subsumed (rule (b)).
	f.Add([]byte{0, 2, 1, 2, 1, 0, 3, 3, 3, 3, 3, 3, 3, 3, 1, 0})
	// Chain, A = {(0,1), (0,1)}: deleting one copy must re-derive the
	// other's associations (rule (b), equal copy).
	f.Add([]byte{0, 2, 1, 2, 1, 2, 3, 3, 3, 3, 3, 3, 3, 3, 1, 0})
	// Chain A(0,1)—B(1,2)—C(2,0) beside rows joining nothing, which
	// keep the front from emptying (that rebuilds): deleting C's row
	// must leave A—B (rule (a)).
	f.Add([]byte{0, 2, 1, 2, 2, 1, 2, 3, 3, 2, 3, 1, 1, 1, 5, 0})
	// Two nodes over base B: insert (0,NULL) and (NULL,0), which join
	// as B1—B2, then delete (0,NULL): B1's (NULL,0) remains, although
	// it scans the edited base too (rule (a) drops only the nodes that
	// held the deleted row).
	f.Add([]byte{3, 0, 2, 1, 0, 2, 0, 1, 3, 0})
	// Chain, A and B all-NULL, C = {(0,0)}: deleting C's row leaves
	// only the all-null association, which no term reads (the emptied
	// front rebuilds).
	f.Add([]byte{0, 1, 0, 0, 0, 0, 1, 1, 5, 0})
	// A mixed chain with edits on every base.
	f.Add([]byte{0, 3, 1, 2, 2, 3, 3, 1, 2, 2, 3, 0, 1, 1, 1, 1, 2, 0, 2, 2, 3, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, in, edits := decodeMaintainCase(data)
		if g == nil {
			return
		}
		ctx := context.Background()
		dg, err := fd.Compute(ctx, g, in)
		if err != nil {
			t.Fatal(err)
		}
		var mat *fd.Materialized
		for i, e := range edits {
			r := in.Relation(e.base)
			var tp relation.Tuple
			if e.del {
				if r.Len() == 0 {
					continue
				}
				tp = r.RemoveAt(e.row % r.Len())
			} else {
				r.AddValues(e.vals...)
				tp = r.At(r.Len() - 1)
			}
			d, next, mode, err := fd.MaintainRows(ctx, mat, dg, g, in, e.base, tp, e.del)
			if err != nil {
				t.Fatalf("edit %d: %v", i, err)
			}
			mat, dg = next, d
			want, err := fd.FullDisjunctionNaive(ctx, g, in)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := d.String(), want.Sorted().String(); got != want {
				t.Fatalf("edit %d (delete=%v of %s %v, %s): D(G) differs\ngot:\n%s\nwant:\n%s", i, e.del, e.base, tp, mode, got, want)
			}
		}
	})
}
