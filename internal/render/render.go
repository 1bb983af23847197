// Package render formats relations, illustrations, and mappings as
// aligned ASCII tables — the textual stand-in for Clio's GUI viewers
// (schema viewer, workspaces, target viewer; Section 6.1).
package render

import (
	"fmt"
	"strings"

	"clio/internal/core"
	"clio/internal/fd"
	"clio/internal/graph"
	"clio/internal/relation"
	"clio/internal/schema"
)

// Options control table rendering.
type Options struct {
	// Unqualify strips relation qualifiers from column headers.
	Unqualify bool
	// MaxRows truncates output (0 = no limit); a footer reports the
	// elision.
	MaxRows int
	// Marker, when set, prepends a per-tuple marker cell (e.g. "→" for
	// highlighted example rows, Figure 3's highlighting).
	Marker func(relation.Tuple) string
}

// Table renders a relation as an aligned ASCII table.
func Table(r *relation.Relation, opt Options) string {
	n := r.Len()
	if opt.MaxRows > 0 && n > opt.MaxRows {
		n = opt.MaxRows
	}
	rows := make([][]string, n)
	for i := range rows {
		t := r.At(i)
		row := make([]string, t.Scheme().Arity())
		for j := range row {
			row[j] = t.At(j).String()
		}
		rows[i] = row
	}
	return TableRows(r, rows, opt)
}

// TableRows is Table over cells the caller already rendered: rows[i][j]
// is r.At(i).At(j).String(), for every tuple of r or at least the first
// opt.MaxRows of them. It reads r only for its name, scheme and length,
// and for the tuples opt.Marker marks.
func TableRows(r *relation.Relation, rows [][]string, opt Options) string {
	headers := make([]string, r.Scheme().Arity())
	for i, n := range r.Scheme().Names() {
		if opt.Unqualify {
			if ref, err := schema.ParseColumnRef(n); err == nil {
				headers[i] = ref.Attr
				continue
			}
		}
		headers[i] = n
	}
	truncated := 0
	if opt.MaxRows > 0 && r.Len() > opt.MaxRows {
		truncated = r.Len() - opt.MaxRows
		rows = rows[:opt.MaxRows]
	}
	if opt.Marker != nil {
		marked := make([][]string, len(rows))
		for i, row := range rows {
			marked[i] = append([]string{opt.Marker(r.At(i))}, row...)
		}
		rows = marked
		headers = append([]string{""}, headers...)
	}
	out := grid(r.Name, headers, rows)
	if truncated > 0 {
		out += fmt.Sprintf("... %d more row(s)\n", truncated)
	}
	return out
}

// grid lays out a titled, aligned table.
func grid(title string, headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		b.WriteString("| ")
		for i := range headers {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			b.WriteString(pad(c, widths[i]))
			b.WriteString(" | ")
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	b.WriteString("|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteString("|")
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Illustration renders an illustration as a table: coverage tag,
// polarity, inheritance mark, then the data association and the
// resulting target tuple (the paper's Figure 9 layout).
func Illustration(il core.Illustration, abbrev map[string]string) string {
	if len(il.Examples) == 0 {
		return "(no examples)\n"
	}
	assocScheme := il.Examples[0].Assoc.Scheme()
	tgtScheme := il.Examples[0].Target.Scheme()
	headers := []string{"cov", "±"}
	headers = append(headers, assocScheme.Names()...)
	headers = append(headers, "=>")
	for _, n := range tgtScheme.Names() {
		if ref, err := schema.ParseColumnRef(n); err == nil {
			headers = append(headers, ref.Attr)
		} else {
			headers = append(headers, n)
		}
	}
	var rows [][]string
	for _, e := range il.Examples {
		sign := "-"
		if e.Positive {
			sign = "+"
		}
		if e.Inherited {
			sign += "*"
		}
		row := []string{fd.Tag(e.Coverage, abbrev), sign}
		for i := 0; i < e.Assoc.Scheme().Arity(); i++ {
			row = append(row, e.Assoc.At(i).String())
		}
		row = append(row, "=>")
		for i := 0; i < e.Target.Scheme().Arity(); i++ {
			row = append(row, e.Target.At(i).String())
		}
		rows = append(rows, row)
	}
	title := fmt.Sprintf("illustration of %s (%d examples; +* = inherited)", il.Mapping.Name, len(il.Examples))
	return grid(title, headers, rows)
}

// Mapping renders a mapping summary: graph, correspondences, filters,
// and the canonical SQL.
func Mapping(m *core.Mapping) string {
	var b strings.Builder
	b.WriteString(m.String())
	b.WriteString("SQL:\n")
	b.WriteString(m.CanonicalSQL())
	b.WriteByte('\n')
	return b.String()
}

// Scenarios renders a list of alternative mappings with notes, the
// textual analogue of Figures 3–5's side-by-side scenarios.
func Scenarios(titles []string, bodies []string) string {
	var b strings.Builder
	for i := range titles {
		fmt.Fprintf(&b, "--- Scenario %d: %s ---\n", i+1, titles[i])
		b.WriteString(bodies[i])
		if !strings.HasSuffix(bodies[i], "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Dot renders a query graph in Graphviz dot syntax (undirected), with
// relation copies dashed and edge labels carrying the join predicates
// — the textual counterpart of Clio's schema-viewer overlay.
func Dot(g *graph.QueryGraph, name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", name)
	for _, n := range g.Nodes() {
		node, _ := g.Node(n)
		style := ""
		if node.Base != node.Name {
			style = fmt.Sprintf(", style=dashed, xlabel=%q", "copy of "+node.Base)
		}
		fmt.Fprintf(&b, "  %q [shape=box%s];\n", node.Name, style)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %q -- %q [label=%q];\n", e.A, e.B, e.Label())
	}
	b.WriteString("}\n")
	return b.String()
}
