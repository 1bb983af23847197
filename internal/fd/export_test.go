package fd

import (
	"context"

	"clio/internal/algebra"
	"clio/internal/budget"
	"clio/internal/graph"
	"clio/internal/relation"
)

// NewMaterializedByInsert is the reference the one-pass build must
// match: the same subsets drained in the same order with the same
// charges, every padded association inserted into the subsumption
// state one at a time.
func NewMaterializedByInsert(ctx context.Context, g *graph.QueryGraph, in *relation.Instance) (*Materialized, error) {
	s, err := Scheme(g, in)
	if err != nil {
		return nil, err
	}
	m := &Materialized{scheme: s, subsets: g.ConnectedSubsets(), set: relation.NewSubsumeSet(s), canon: canonGraph(g)}
	tr := budget.FromContext(ctx)
	insert := func(p relation.Tuple) error {
		m.set.Insert(p)
		return nil
	}
	for _, sub := range m.subsets {
		shape, err := spanningShape(g, sub)
		if err != nil {
			return nil, err
		}
		m.shapes = append(m.shapes, shape)
		if err := drain(ctx, shape.plan(algebra.InnerJoin, nil), in, s, tr, insert); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// State renders the materialization's whole subsumption state: every
// live entry with its count and maximal flag, in key order.
func (m *Materialized) State() string { return m.set.String() }
