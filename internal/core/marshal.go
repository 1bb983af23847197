package core

import (
	"bytes"
	"encoding/json"
	"fmt"

	"clio/internal/expr"
	"clio/internal/graph"
	"clio/internal/schema"
)

// Mapping persistence: mappings serialize to a stable JSON document in
// which all expressions appear in their surface syntax (re-parsed on
// load), so saved mappings are human-readable and diffable.

type mappingJSON struct {
	Name   string     `json:"name"`
	Target targetJSON `json:"target"`
	Nodes  []nodeJSON `json:"nodes"`
	Edges  []edgeJSON `json:"edges"`
	Corrs  []string   `json:"correspondences"`
	Source []string   `json:"sourceFilters,omitempty"`
	Filter []string   `json:"targetFilters,omitempty"`
}

type targetJSON struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
}

type nodeJSON struct {
	Name string `json:"name"`
	Base string `json:"base"`
}

type edgeJSON struct {
	A    string `json:"a"`
	B    string `json:"b"`
	Pred string `json:"pred"`
}

// MarshalJSON serializes the mapping.
func (m *Mapping) MarshalJSON() ([]byte, error) {
	doc := mappingJSON{Name: m.Name}
	doc.Target.Name = m.Target.Name
	for _, a := range m.Target.Attrs {
		doc.Target.Attrs = append(doc.Target.Attrs, a.Name)
	}
	for _, n := range m.Graph.Nodes() {
		node, _ := m.Graph.Node(n)
		doc.Nodes = append(doc.Nodes, nodeJSON{Name: node.Name, Base: node.Base})
	}
	for _, e := range m.Graph.Edges() {
		doc.Edges = append(doc.Edges, edgeJSON{A: e.A, B: e.B, Pred: e.Label()})
	}
	for _, c := range m.Corrs {
		doc.Corrs = append(doc.Corrs, c.String())
	}
	for _, f := range m.SourceFilters {
		doc.Source = append(doc.Source, f.String())
	}
	for _, f := range m.TargetFilters {
		doc.Filter = append(doc.Filter, f.String())
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// UnmarshalMapping reconstructs a mapping from its JSON document.
func UnmarshalMapping(data []byte) (*Mapping, error) {
	var doc mappingJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("core: parsing mapping JSON: %w", err)
	}
	if doc.Target.Name == "" {
		return nil, fmt.Errorf("core: mapping JSON missing target")
	}
	attrs := make([]schema.Attribute, len(doc.Target.Attrs))
	seen := map[string]bool{}
	for i, a := range doc.Target.Attrs {
		if seen[a] {
			return nil, fmt.Errorf("core: mapping JSON repeats target attribute %q", a)
		}
		seen[a] = true
		attrs[i] = schema.Attribute{Name: a}
	}
	m := NewMapping(doc.Name, schema.NewRelation(doc.Target.Name, attrs...))
	g := graph.New()
	for _, n := range doc.Nodes {
		if err := g.AddNode(n.Name, n.Base); err != nil {
			return nil, err
		}
	}
	for _, e := range doc.Edges {
		pred, err := expr.Parse(e.Pred)
		if err != nil {
			return nil, fmt.Errorf("core: edge predicate %q: %w", e.Pred, err)
		}
		if err := g.AddEdge(e.A, e.B, pred); err != nil {
			return nil, err
		}
	}
	m.Graph = g
	for _, c := range doc.Corrs {
		corr, err := ParseCorrespondence(c)
		if err != nil {
			return nil, err
		}
		m.Corrs = append(m.Corrs, corr)
	}
	for _, f := range doc.Source {
		p, err := expr.Parse(f)
		if err != nil {
			return nil, fmt.Errorf("core: source filter %q: %w", f, err)
		}
		m.SourceFilters = append(m.SourceFilters, p)
	}
	for _, f := range doc.Filter {
		p, err := expr.Parse(f)
		if err != nil {
			return nil, fmt.Errorf("core: target filter %q: %w", f, err)
		}
		m.TargetFilters = append(m.TargetFilters, p)
	}
	return m, nil
}
