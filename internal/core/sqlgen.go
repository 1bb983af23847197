package core

import (
	"fmt"
	"strings"

	"clio/internal/algebra"
	"clio/internal/expr"
	"clio/internal/relation"
	"clio/internal/schema"
)

// This file renders mappings as SQL. Two forms are produced:
//
//   - CanonicalSQL: the Definition 3.14 query over the D(G) symbol —
//     the form the paper writes in Example 3.15.
//   - ViewSQL: the paper's Section 2 "create view Kids as select ...
//     from Children left join ..." form, available when the query
//     graph is a tree and a required root relation exists. Target
//     filters are rewritten over the defining expressions.
//
// Plan builds the executable algebra plan over a materialized D(G),
// and LeftJoinPlan the left-outer-join plan that ViewSQL prints; the
// equivalence of the two (under a required root) is property-tested
// and benchmarked (experiment E6).

// CanonicalSQL renders the mapping query in the paper's canonical
// form over D(G).
func (m *Mapping) CanonicalSQL() string {
	var b strings.Builder
	b.WriteString("SELECT * FROM (\n  SELECT ")
	b.WriteString(m.selectList())
	b.WriteString("\n  FROM D(G)")
	if len(m.SourceFilters) > 0 {
		b.WriteString("\n  WHERE ")
		b.WriteString(andSQL(m.SourceFilters))
	}
	b.WriteString("\n)")
	if len(m.TargetFilters) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(andSQLUnqualified(m.TargetFilters, m.Target.Name))
	}
	return b.String()
}

func (m *Mapping) selectList() string {
	var parts []string
	for _, a := range m.Target.Attrs {
		if c, ok := m.CorrFor(a.Name); ok {
			parts = append(parts, c.Expr.String()+" AS "+a.Name)
		}
	}
	if len(parts) == 0 {
		return "*"
	}
	return strings.Join(parts, ", ")
}

func andSQL(ps []expr.Expr) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

// andSQLUnqualified renders target filters with the target qualifier
// stripped (the subquery exposes bare attribute names).
func andSQLUnqualified(ps []expr.Expr, target string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = strings.ReplaceAll(p.String(), target+".", "")
	}
	return strings.Join(parts, " AND ")
}

// RequiredRoot returns a graph node whose coverage the filters force:
// a node X such that some target filter demands non-nullness of a
// target attribute computed as a plain column of X, or some source
// filter demands non-nullness of one of X's columns. ok is false when
// no such node exists.
func (m *Mapping) RequiredRoot() (string, bool) {
	for _, f := range m.TargetFilters {
		isn, okCast := f.(expr.IsNull)
		if !okCast || !isn.Negate {
			continue
		}
		col, okCol := isn.E.(expr.Col)
		if !okCol {
			continue
		}
		ref, err := schema.ParseColumnRef(col.Name)
		if err != nil {
			continue
		}
		c, okCorr := m.CorrFor(ref.Attr)
		if !okCorr {
			continue
		}
		src, okSrc := c.Expr.(expr.Col)
		if !okSrc {
			continue
		}
		sref, err := schema.ParseColumnRef(src.Name)
		if err == nil && m.Graph.HasNode(sref.Relation) {
			return sref.Relation, true
		}
	}
	for _, f := range m.SourceFilters {
		isn, okCast := f.(expr.IsNull)
		if !okCast || !isn.Negate {
			continue
		}
		col, okCol := isn.E.(expr.Col)
		if !okCol {
			continue
		}
		ref, err := schema.ParseColumnRef(col.Name)
		if err == nil && m.Graph.HasNode(ref.Relation) {
			return ref.Relation, true
		}
	}
	return "", false
}

// ViewSQL renders the mapping as the paper's Section 2 view: a chain
// of LEFT JOINs from the root. It requires a tree query graph; the
// root should normally come from RequiredRoot, since the rendering is
// only equivalent to the mapping query when the root's coverage is
// forced. Target filters are rewritten by substituting each target
// attribute with its defining expression.
func (m *Mapping) ViewSQL(root string) (string, error) {
	plan, err := m.LeftJoinPlan(root)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE VIEW %s AS\nSELECT %s\nFROM %s", m.Target.Name, m.selectList(), plan.fromSQL)
	var where []string
	for _, f := range m.SourceFilters {
		where = append(where, f.String())
	}
	for _, f := range m.rewrittenTargetFilters() {
		where = append(where, f.String())
	}
	if len(where) > 0 {
		b.WriteString("\nWHERE ")
		b.WriteString(strings.Join(where, " AND "))
	}
	b.WriteString(";")
	return b.String(), nil
}

// rewrittenTargetFilters substitutes each target attribute reference
// with its defining correspondence expression, yielding source-level
// predicates (unmapped target attributes become the NULL literal via
// an absent column, which is what the mapping semantics computes too).
func (m *Mapping) rewrittenTargetFilters() []expr.Expr {
	subst := map[string]expr.Expr{}
	for _, c := range m.Corrs {
		subst[c.Target.String()] = c.Expr
	}
	out := make([]expr.Expr, len(m.TargetFilters))
	for i, f := range m.TargetFilters {
		out[i] = substituteColumns(f, subst)
	}
	return out
}

// substituteColumns replaces column references with expressions.
func substituteColumns(e expr.Expr, subst map[string]expr.Expr) expr.Expr {
	switch n := e.(type) {
	case expr.Lit:
		return n
	case expr.Col:
		if r, ok := subst[n.Name]; ok {
			return r
		}
		return n
	case expr.Bin:
		return expr.Bin{Op: n.Op, L: substituteColumns(n.L, subst), R: substituteColumns(n.R, subst)}
	case expr.Not:
		return expr.Not{E: substituteColumns(n.E, subst)}
	case expr.IsNull:
		return expr.IsNull{E: substituteColumns(n.E, subst), Negate: n.Negate}
	case expr.Call:
		args := make([]expr.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = substituteColumns(a, subst)
		}
		return expr.Call{Name: n.Name, Args: args}
	case expr.In:
		list := make([]expr.Expr, len(n.List))
		for i, a := range n.List {
			list[i] = substituteColumns(a, subst)
		}
		return expr.In{E: substituteColumns(n.E, subst), List: list, Negate: n.Negate}
	case expr.Between:
		return expr.Between{
			E: substituteColumns(n.E, subst), Lo: substituteColumns(n.Lo, subst),
			Hi: substituteColumns(n.Hi, subst), Negate: n.Negate,
		}
	case expr.Like:
		return expr.Like{E: substituteColumns(n.E, subst), Pattern: n.Pattern, Negate: n.Negate}
	default:
		return e
	}
}

// leftJoinPlan carries the algebra plan plus its FROM-clause SQL.
type leftJoinPlan struct {
	node    algebra.Node
	fromSQL string
}

// LeftJoinPlan builds the left-outer-join plan rooted at root for a
// tree query graph: root LEFT JOIN child ON edge ... in BFS order.
func (m *Mapping) LeftJoinPlan(root string) (*leftJoinPlan, error) {
	if !m.Graph.IsTree() {
		return nil, fmt.Errorf("core: left-join rendering requires a tree query graph")
	}
	if !m.Graph.HasNode(root) {
		return nil, fmt.Errorf("core: root %q not in query graph", root)
	}
	// BFS from root.
	type step struct {
		node string
		pred expr.Expr
	}
	var steps []step
	seen := map[string]bool{root: true}
	queue := []string{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, o := range m.Graph.Neighbors(n) {
			if seen[o] {
				continue
			}
			seen[o] = true
			e, _ := m.Graph.EdgeBetween(n, o)
			steps = append(steps, step{node: o, pred: e.Pred})
			queue = append(queue, o)
		}
	}
	rn, _ := m.Graph.Node(root)
	var node algebra.Node = algebra.NewScan(rn.Base, rn.Name)
	fromSQL := scanSQL(rn.Base, rn.Name)
	for _, st := range steps {
		sn, _ := m.Graph.Node(st.node)
		node = algebra.Join{Kind: algebra.LeftJoin, L: node, R: algebra.NewScan(sn.Base, sn.Name), On: st.pred}
		fromSQL += "\n  LEFT JOIN " + scanSQL(sn.Base, sn.Name) + " ON " + st.pred.String()
	}
	return &leftJoinPlan{node: node, fromSQL: fromSQL}, nil
}

func scanSQL(base, alias string) string {
	if alias == base {
		return base
	}
	return base + " AS " + alias
}

// EvaluateViaLeftJoins evaluates the mapping through the left-join
// plan (root must be forced by the filters for this to equal
// Evaluate; see ViewSQL). Exposed for the E6 benchmark and the
// equivalence tests.
func (m *Mapping) EvaluateViaLeftJoins(root string, in *relation.Instance) (*relation.Relation, error) {
	plan, err := m.LeftJoinPlan(root)
	if err != nil {
		return nil, err
	}
	joined, err := plan.node.Eval(in)
	if err != nil {
		return nil, err
	}
	return m.EvaluateOn(joined), nil
}

// Plan builds the algebra plan of the mapping query over a
// materialized D(G) relation.
func (m *Mapping) Plan(dg *relation.Relation) algebra.Node {
	var node algebra.Node = algebra.Materialized{Label: "D(G)", Rel: dg}
	if len(m.SourceFilters) > 0 {
		node = algebra.Select{Child: node, Pred: expr.And(m.SourceFilters...)}
	}
	var cols []algebra.OutputCol
	for _, a := range m.Target.Attrs {
		if c, ok := m.CorrFor(a.Name); ok {
			cols = append(cols, algebra.OutputCol{Name: m.Target.Name + "." + a.Name, Expr: c.Expr})
		} else {
			cols = append(cols, algebra.OutputCol{Name: m.Target.Name + "." + a.Name, Expr: expr.Lit{}})
		}
	}
	node = algebra.Project{Name: m.Target.Name, Child: node, Cols: cols}
	if len(m.TargetFilters) > 0 {
		node = algebra.Select{Child: node, Pred: expr.And(m.TargetFilters...)}
	}
	return algebra.Distinct{Child: node}
}

// DGSQL renders the full disjunction D(G) as executable SQL: for tree
// query graphs, a chain of FULL JOINs along a spanning order (with the
// caveat that a final subsumption sweep is still applied by the
// engine); for cyclic graphs, the ⊕-of-terms form. This is what the
// REPL shows when a user asks what D(G) "is" in SQL terms.
func (m *Mapping) DGSQL() string {
	if order, treeEdges, ok := m.Graph.SpanningTreeOrder(); ok && m.Graph.IsTree() {
		rn, _ := m.Graph.Node(order[0])
		s := scanSQL(rn.Base, rn.Name)
		for i := 1; i < len(order); i++ {
			n, _ := m.Graph.Node(order[i])
			s += "\n  FULL JOIN " + scanSQL(n.Base, n.Name) + " ON " + treeEdges[i].Pred.String()
		}
		return s + "\n  -- minus subsumed tuples"
	}
	var parts []string
	for _, sub := range m.Graph.ConnectedSubsets() {
		parts = append(parts, "F("+strings.Join(sub, ",")+")")
	}
	return strings.Join(parts, " ⊕ ")
}
