// Package sqlparse parses SQL SELECT statements of the shape Clio
// generates — projection with aliases, a FROM table, a chain of
// [LEFT|RIGHT|FULL|INNER] JOIN ... ON ... clauses, and an optional
// WHERE — and converts them into mappings. This is the inverse of
// Mapping.ViewSQL: it lets existing view definitions be imported as
// mappings (the paper's Clio mines "views [and] stored queries" as
// part of its source knowledge).
//
// Expressions (select items, ON and WHERE predicates) are delegated to
// the expr package; this parser only handles statement structure. The
// optional "CREATE VIEW <name> AS" prefix supplies the target name.
package sqlparse

import (
	"fmt"
	"strings"

	"clio/internal/core"
	"clio/internal/expr"
	"clio/internal/relation"
	"clio/internal/schema"
)

// SelectItem is one projection: an expression with an output alias.
type SelectItem struct {
	Expr  expr.Expr
	Alias string
}

// TableRef is a FROM or JOIN table with an optional alias.
type TableRef struct {
	Base  string
	Alias string // equals Base when absent
}

// JoinClause is one JOIN step.
type JoinClause struct {
	Kind  string // "JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"
	Table TableRef
	On    expr.Expr
}

// Query is a parsed SELECT statement.
type Query struct {
	// View is the target name from a CREATE VIEW prefix, if present.
	View   string
	Select []SelectItem
	From   TableRef
	Joins  []JoinClause
	Where  expr.Expr // nil when absent
}

// ParseSelect parses the statement.
func ParseSelect(sql string) (*Query, error) {
	p := &parser{src: sql}
	return p.parse()
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: "+format+" (at offset %d)", append(args, p.pos)...)
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

// peekKeyword reports whether the next token is the given keyword
// (case-insensitive, word-bounded).
func (p *parser) peekKeyword(kw string) bool {
	p.skipSpace()
	if p.pos+len(kw) > len(p.src) {
		return false
	}
	if !strings.EqualFold(p.src[p.pos:p.pos+len(kw)], kw) {
		return false
	}
	if p.pos+len(kw) < len(p.src) {
		c := p.src[p.pos+len(kw)]
		if isWordByte(c) {
			return false
		}
	}
	return true
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.pos += len(kw)
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func isWordByte(c byte) bool {
	return c == '_' || c == '.' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// ident reads an identifier (letters, digits, _, .).
func (p *parser) ident() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isWordByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected identifier")
	}
	return p.src[start:p.pos], nil
}

// exprUntil captures source text until one of the stop keywords at
// nesting level 0 (outside parens and strings), then parses it.
func (p *parser) exprUntil(stops ...string) (expr.Expr, string, error) {
	p.skipSpace()
	start := p.pos
	depth := 0
	inStr := false
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case inStr:
			if c == '\'' {
				// '' is an escaped quote.
				if p.pos+1 < len(p.src) && p.src[p.pos+1] == '\'' {
					p.pos++
				} else {
					inStr = false
				}
			}
		case c == '\'':
			inStr = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case depth == 0:
			if c == ',' {
				goto done
			}
			if c == ';' {
				goto done
			}
			for _, kw := range stops {
				if p.matchesKeywordAt(kw) {
					goto done
				}
			}
		}
		p.pos++
	}
done:
	text := strings.TrimSpace(p.src[start:p.pos])
	if text == "" {
		return nil, "", p.errf("empty expression")
	}
	e, err := expr.Parse(text)
	if err != nil {
		return nil, "", fmt.Errorf("sqlparse: in %q: %w", text, err)
	}
	return e, text, nil
}

// matchesKeywordAt reports whether a word-bounded keyword starts at
// the current position.
func (p *parser) matchesKeywordAt(kw string) bool {
	if p.pos+len(kw) > len(p.src) {
		return false
	}
	if !strings.EqualFold(p.src[p.pos:p.pos+len(kw)], kw) {
		return false
	}
	if p.pos > 0 && isWordByte(p.src[p.pos-1]) {
		return false
	}
	if p.pos+len(kw) < len(p.src) && isWordByte(p.src[p.pos+len(kw)]) {
		return false
	}
	return true
}

func (p *parser) parse() (*Query, error) {
	q := &Query{}
	if p.acceptKeyword("CREATE") {
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		q.View = name
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	// Select list.
	for {
		e, text, err := p.exprUntil("AS", "FROM")
		if err != nil {
			return nil, err
		}
		item := SelectItem{Expr: e}
		if p.acceptKeyword("AS") {
			alias, err := p.ident()
			if err != nil {
				return nil, err
			}
			item.Alias = alias
		} else {
			// Derive an alias from a plain column reference.
			if ref, err := schema.ParseColumnRef(text); err == nil {
				item.Alias = ref.Attr
			} else {
				item.Alias = text
			}
		}
		q.Select = append(q.Select, item)
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	q.From = from

	// Join chain.
	for {
		var kind string
		switch {
		case p.acceptKeyword("LEFT"):
			p.acceptKeyword("OUTER")
			kind = "LEFT JOIN"
		case p.acceptKeyword("RIGHT"):
			p.acceptKeyword("OUTER")
			kind = "RIGHT JOIN"
		case p.acceptKeyword("FULL"):
			p.acceptKeyword("OUTER")
			kind = "FULL JOIN"
		case p.acceptKeyword("INNER"):
			kind = "JOIN"
		case p.peekKeyword("JOIN"):
			kind = "JOIN"
		default:
			kind = ""
		}
		if kind == "" {
			break
		}
		if err := p.expectKeyword("JOIN"); err != nil {
			return nil, err
		}
		tbl, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, _, err := p.exprUntil("LEFT", "RIGHT", "FULL", "INNER", "JOIN", "WHERE")
		if err != nil {
			return nil, err
		}
		q.Joins = append(q.Joins, JoinClause{Kind: kind, Table: tbl, On: on})
	}

	if p.acceptKeyword("WHERE") {
		w, _, err := p.exprUntil()
		if err != nil {
			return nil, err
		}
		q.Where = w
	}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == ';' {
		p.pos++
		p.skipSpace()
	}
	if p.pos != len(p.src) {
		return nil, p.errf("trailing input %q", p.src[p.pos:])
	}
	if len(q.Select) == 0 {
		return nil, p.errf("empty select list")
	}
	// Every table needs its own name: the join chain, the query graph
	// and the coverage closure all key tables by alias.
	aliases := map[string]bool{q.From.Alias: true}
	for _, j := range q.Joins {
		if aliases[j.Table.Alias] {
			return nil, fmt.Errorf("sqlparse: alias %q names two tables", j.Table.Alias)
		}
		aliases[j.Table.Alias] = true
	}
	return q, nil
}

func (p *parser) tableRef() (TableRef, error) {
	base, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	t := TableRef{Base: base, Alias: base}
	if p.acceptKeyword("AS") {
		alias, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		t.Alias = alias
	}
	return t, nil
}

// ToMapping converts a parsed query into a mapping: the FROM/JOIN
// chain becomes the query graph (edges from the ON predicates), the
// select list becomes the correspondences, and the WHERE clause
// becomes source filters. Join kinds are captured as filters: the
// mapping's D(G) semantics subsumes outer joins, and preserved sides
// of inner/one-sided joins are enforced by coverage requirements — an
// inner join requires both sides covered, LEFT requires the left
// chain. targetName overrides the CREATE VIEW name.
func ToMapping(q *Query, targetName string) (*core.Mapping, error) {
	if targetName == "" {
		targetName = q.View
	}
	if targetName == "" {
		targetName = "Target"
	}
	attrs := make([]schema.Attribute, len(q.Select))
	for i, s := range q.Select {
		attrs[i] = schema.Attribute{Name: s.Alias}
	}
	target := schema.NewRelation(targetName, attrs...)
	m := core.NewMapping(targetName, target)
	if err := m.Graph.AddNode(q.From.Alias, q.From.Base); err != nil {
		return nil, err
	}
	for _, j := range q.Joins {
		if err := m.Graph.AddNode(j.Table.Alias, j.Table.Base); err != nil {
			return nil, err
		}
		// The ON predicate names both endpoints; find the partner node
		// among the predicate's columns.
		partner := ""
		for _, col := range j.On.Columns(nil) {
			ref, err := schema.ParseColumnRef(col)
			if err != nil {
				continue
			}
			if ref.Relation != j.Table.Alias && m.Graph.HasNode(ref.Relation) {
				partner = ref.Relation
			}
		}
		if partner == "" {
			return nil, fmt.Errorf("sqlparse: join ON %s does not reference an earlier table", j.On)
		}
		if err := m.Graph.AddEdge(partner, j.Table.Alias, j.On); err != nil {
			return nil, err
		}
	}
	for i, s := range q.Select {
		m.Corrs = append(m.Corrs, core.Correspondence{
			Target: schema.Col(targetName, attrs[i].Name),
			Expr:   s.Expr,
		})
	}
	if q.Where != nil {
		m.SourceFilters = append(m.SourceFilters, q.Where)
	}
	return m, nil
}

// ToJoinQuery converts the parsed statement's FROM/JOIN chain into a
// core.JoinQuery (left-deep), preserving join kinds exactly. Combined
// with core.RepresentJoinQuery this gives the exact multi-mapping
// representation for any kind mixture.
func ToJoinQuery(q *Query) (core.JoinQuery, error) {
	var jq core.JoinQuery = core.Rel{Name: q.From.Alias, Base: q.From.Base}
	present := map[string]bool{q.From.Alias: true}
	for _, j := range q.Joins {
		partner := ""
		for _, col := range j.On.Columns(nil) {
			ref, err := schema.ParseColumnRef(col)
			if err != nil {
				continue
			}
			if ref.Relation != j.Table.Alias && present[ref.Relation] {
				partner = ref.Relation
			}
		}
		if partner == "" {
			return nil, fmt.Errorf("sqlparse: join ON %s does not reference an earlier table", j.On)
		}
		leaf := core.Rel{Name: j.Table.Alias, Base: j.Table.Base}
		switch j.Kind {
		case "JOIN":
			jq = core.Inner(jq, leaf, partner, j.Table.Alias, j.On)
		case "LEFT JOIN":
			jq = core.Left(jq, leaf, partner, j.Table.Alias, j.On)
		case "RIGHT JOIN":
			jq = core.Right(jq, leaf, partner, j.Table.Alias, j.On)
		case "FULL JOIN":
			jq = core.Full(jq, leaf, partner, j.Table.Alias, j.On)
		default:
			return nil, fmt.Errorf("sqlparse: unknown join kind %q", j.Kind)
		}
		present[j.Table.Alias] = true
	}
	return jq, nil
}

// RequiredCoverage computes the nodes whose coverage a {INNER, LEFT}
// join chain forces: the FROM table, both endpoints of every inner
// join, and every ancestor (toward the FROM table) of a required
// node. It errors on RIGHT/FULL joins, whose semantics a single
// mapping cannot capture with coverage filters alone — use
// ToJoinQuery + core.RepresentJoinQuery there.
func RequiredCoverage(q *Query) ([]string, error) {
	parent := map[string]string{}
	required := map[string]bool{q.From.Alias: true}
	present := map[string]bool{q.From.Alias: true}
	for _, j := range q.Joins {
		partner := ""
		for _, col := range j.On.Columns(nil) {
			ref, err := schema.ParseColumnRef(col)
			if err != nil {
				continue
			}
			if ref.Relation != j.Table.Alias && present[ref.Relation] {
				partner = ref.Relation
			}
		}
		if partner == "" {
			return nil, fmt.Errorf("sqlparse: join ON %s does not reference an earlier table", j.On)
		}
		parent[j.Table.Alias] = partner
		present[j.Table.Alias] = true
		switch j.Kind {
		case "JOIN":
			required[j.Table.Alias] = true
			required[partner] = true
		case "LEFT JOIN":
			// optional side
		default:
			return nil, fmt.Errorf("sqlparse: %s needs the multi-mapping representation (ToJoinQuery)", j.Kind)
		}
	}
	// Upward closure.
	for n := range required {
		for p, ok := parent[n]; ok; p, ok = parent[p] {
			required[p] = true
			n = p
		}
	}
	var out []string
	for n := range required {
		out = append(out, n)
	}
	sortStrings(out)
	return out, nil
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// ImportMapping parses a CREATE VIEW / SELECT statement and builds the
// equivalent single mapping over the instance: graph, correspondences,
// WHERE filters, plus coverage filters enforcing the join kinds
// ({INNER, LEFT} chains only). The result evaluates identically to the
// statement (see the round-trip tests).
func ImportMapping(sql string, in *relation.Instance, targetName string) (*core.Mapping, error) {
	q, err := ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	m, err := ToMapping(q, targetName)
	if err != nil {
		return nil, err
	}
	req, err := RequiredCoverage(q)
	if err != nil {
		return nil, err
	}
	for _, node := range req {
		p, err := core.CoveragePredicate(m.Graph, in, node)
		if err != nil {
			return nil, err
		}
		m.SourceFilters = append(m.SourceFilters, p)
	}
	return m, nil
}
