// Package algebra implements a streaming relational-algebra evaluator
// over relation.Instance: scans (with aliasing), selection,
// generalized projection, inner and outer joins (with a hash fast path
// for equi-join conjuncts), cross product and distinct. Every operator
// compiles to a columnar Iterator (see Open); Eval is a thin wrapper
// that drains the pipeline into a relation. Plans also render
// themselves as SQL, which is how mapping queries are shown to users.
package algebra

import (
	"context"
	"strings"

	"clio/internal/expr"
	"clio/internal/relation"
	"clio/internal/schema"
)

// Node is a relational-algebra plan node. Open compiles any node to
// its pipeline.
type Node interface {
	// Eval materializes the node's result against the instance,
	// without a budget or cancellation (it drains Open under the
	// background context).
	Eval(in *relation.Instance) (*relation.Relation, error)
	// SQL renders the node as a SQL table expression.
	SQL() string
}

// Scan reads a stored relation, optionally under an alias (a relation
// copy, e.g. Parents AS Parents2).
type Scan struct {
	Base  string
	Alias string // empty means Base
}

// NewScan builds a scan of the base relation under the given alias.
func NewScan(base, alias string) Scan {
	if alias == "" {
		alias = base
	}
	return Scan{Base: base, Alias: alias}
}

// Eval returns the (possibly aliased) stored relation.
func (s Scan) Eval(in *relation.Instance) (*relation.Relation, error) {
	return in.Aliased(s.Base, s.aliasOrBase())
}

func (s Scan) aliasOrBase() string {
	if s.Alias == "" {
		return s.Base
	}
	return s.Alias
}

// SQL renders "Base" or "Base AS Alias".
func (s Scan) SQL() string {
	if s.Alias == "" || s.Alias == s.Base {
		return s.Base
	}
	return s.Base + " AS " + s.Alias
}

// Select filters the child by a predicate (kept only when true).
type Select struct {
	Child Node
	Pred  expr.Expr
}

// Eval filters the child's tuples under 3VL.
func (s Select) Eval(in *relation.Instance) (*relation.Relation, error) {
	return Collect(context.Background(), s, in)
}

// SQL renders a filtered subquery.
func (s Select) SQL() string {
	return "(SELECT * FROM " + s.Child.SQL() + " WHERE " + s.Pred.String() + ")"
}

// OutputCol is one column of a generalized projection: a named
// expression.
type OutputCol struct {
	Name string
	Expr expr.Expr
}

// Project computes named expressions over the child's tuples.
type Project struct {
	Name  string // result relation name
	Child Node
	Cols  []OutputCol
}

// Eval computes the projection.
func (p Project) Eval(in *relation.Instance) (*relation.Relation, error) {
	return Collect(context.Background(), p, in)
}

// SQL renders SELECT exprs FROM child.
func (p Project) SQL() string {
	parts := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		parts[i] = c.Expr.String() + " AS " + unqualify(c.Name)
	}
	return "(SELECT " + strings.Join(parts, ", ") + " FROM " + p.Child.SQL() + ")"
}

func unqualify(name string) string {
	if ref, err := schema.ParseColumnRef(name); err == nil {
		return ref.Attr
	}
	return name
}

// JoinKind selects join semantics.
type JoinKind uint8

// The supported join kinds.
const (
	InnerJoin JoinKind = iota
	LeftJoin
	RightJoin
	FullJoin
)

// String returns the SQL keyword for the join kind.
func (k JoinKind) String() string {
	switch k {
	case InnerJoin:
		return "JOIN"
	case LeftJoin:
		return "LEFT JOIN"
	case RightJoin:
		return "RIGHT JOIN"
	case FullJoin:
		return "FULL JOIN"
	default:
		return "JOIN?"
	}
}

// Join combines two children on a predicate. Equality conjuncts over
// one left and one right column are executed as a hash join; any
// residual predicate is applied per candidate pair.
type Join struct {
	Kind JoinKind
	L, R Node
	On   expr.Expr
}

// Eval executes the join.
func (j Join) Eval(in *relation.Instance) (*relation.Relation, error) {
	return Collect(context.Background(), j, in)
}

// SQL renders the join tree.
func (j Join) SQL() string {
	return j.L.SQL() + " " + j.Kind.String() + " " + j.R.SQL() + " ON " + j.On.String()
}

// Cross is the cross product.
type Cross struct{ L, R Node }

// Eval computes the cross product.
func (c Cross) Eval(in *relation.Instance) (*relation.Relation, error) {
	return Collect(context.Background(), c, in)
}

// SQL renders CROSS JOIN.
func (c Cross) SQL() string { return c.L.SQL() + " CROSS JOIN " + c.R.SQL() }

// Distinct removes duplicate tuples.
type Distinct struct{ Child Node }

// Eval deduplicates.
func (d Distinct) Eval(in *relation.Instance) (*relation.Relation, error) {
	return Collect(context.Background(), d, in)
}

// SQL renders SELECT DISTINCT *.
func (d Distinct) SQL() string {
	return "(SELECT DISTINCT * FROM " + d.Child.SQL() + ")"
}

// Materialized wraps an already-computed relation as a plan node (used
// to query over D(G) without recomputing it).
type Materialized struct {
	Label string
	Rel   *relation.Relation
}

// Eval returns the wrapped relation.
func (m Materialized) Eval(*relation.Instance) (*relation.Relation, error) { return m.Rel, nil }

// SQL renders the label.
func (m Materialized) SQL() string {
	if m.Label != "" {
		return m.Label
	}
	return m.Rel.Name
}
