package core

import (
	"clio/internal/expr"
	"clio/internal/relation"
	"clio/internal/value"
)

// compiled is a mapping prepared for one pass over the tuples of one
// D(G) scheme: the target scheme is built once and shared by every
// target tuple, each correspondence knows its target position, and
// correspondences and filters read columns by position (expr.Bind).
// It is built per call rather than cached on the Mapping, whose
// exported fields callers assign freely, and it is not safe for
// concurrent use (transform reuses one value buffer).
type compiled struct {
	ts    *relation.Scheme
	corrs []boundCorr
	src   []expr.Expr // C_S bound to the D(G) scheme
	tgt   []expr.Expr // C_T bound to ts
	buf   []value.Value
}

// boundCorr is a correspondence bound to the D(G) scheme, with the
// position of the target attribute it populates.
type boundCorr struct {
	pos int
	e   expr.Expr
}

// compile binds m to the D(G) scheme s. Correspondences that populate
// no attribute of the target scheme are dropped, as Transform ignores
// them; the rest keep their order, so a later correspondence for the
// same attribute still wins.
func compile(m *Mapping, s *relation.Scheme) *compiled {
	ts := m.TargetScheme()
	c := &compiled{ts: ts, buf: make([]value.Value, ts.Arity())}
	for _, corr := range m.Corrs {
		if i := ts.Index(corr.Target.String()); i >= 0 {
			c.corrs = append(c.corrs, boundCorr{pos: i, e: expr.Bind(corr.Expr, s)})
		}
	}
	for _, f := range m.SourceFilters {
		c.src = append(c.src, expr.Bind(f, s))
	}
	for _, f := range m.TargetFilters {
		c.tgt = append(c.tgt, expr.Bind(f, ts))
	}
	return c
}

// transform is Mapping.Transform over the compiled form.
func (c *compiled) transform(d relation.Tuple) relation.Tuple {
	clear(c.buf)
	for _, bc := range c.corrs {
		c.buf[bc.pos] = bc.e.Eval(d)
	}
	return relation.NewTuple(c.ts, c.buf...)
}

// satisfies reports whether t makes every filter true (3VL: unknown
// fails).
func satisfies(filters []expr.Expr, t relation.Tuple) bool {
	for _, f := range filters {
		if expr.Truth(f, t) != value.True {
			return false
		}
	}
	return true
}

// evaluate runs the mapping query over dg: source filters,
// transformation, target filters, duplicate elimination.
func (c *compiled) evaluate(name string, dg *relation.Relation) *relation.Relation {
	out := relation.New(name, c.ts)
	for _, d := range dg.Tuples() {
		if !satisfies(c.src, d) {
			continue
		}
		t := c.transform(d)
		if !satisfies(c.tgt, t) {
			continue
		}
		out.Add(t)
	}
	return out.Distinct()
}
