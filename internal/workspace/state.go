package workspace

import (
	"encoding/json"
	"fmt"

	"clio/internal/core"
	"clio/internal/relation"
	"clio/internal/value"
)

// Tool state serialization: ToolState captures everything a Tool
// accumulated since its construction — workspaces with their mappings
// and illustrations, the accepted set, the undo history, and the op
// log — in a JSON-stable form. A serving layer embeds it in journal
// "snapshot" records so replay cost is bounded by ops since the last
// snapshot instead of total session history.
//
// The source instance and join knowledge are NOT part of the state:
// they belong to session creation and the row ops, which the owner
// re-executes before calling RestoreState. That mirrors a live session
// exactly: knowledge is built once at construction, and the chase
// scans the instance as the re-executed row ops left it, as the live
// session's chase did.

// ToolState is the serializable canonical state of a Tool.
type ToolState struct {
	MaxWalkLen int               `json:"maxWalkLen"`
	Workspaces []WorkspaceState  `json:"workspaces,omitempty"`
	Active     int               `json:"active"`
	Accepted   []json.RawMessage `json:"accepted,omitempty"`
	NextID     int               `json:"nextId"`
	History    []HistoryState    `json:"history,omitempty"`
	OpSeq      int               `json:"opSeq"`
	OpLog      []OpRecord        `json:"opLog,omitempty"`
}

// WorkspaceState serializes one workspace. The mapping uses the stable
// core mapping JSON document. The cached D(G) is carried verbatim: it
// is maintained across row edits (fd.MaintainRows keeps the active
// workspace's D(G) continuously current), so carrying it avoids a
// recomputation on restore. The delta-maintainable form
// (Workspace.dgm) is NOT serialized: the first edit after a restore
// rebuilds it, and because Materialized.Rel() is canonical (key-sorted)
// the restored session still renders the same view byte for byte.
type WorkspaceState struct {
	ID           int               `json:"id"`
	Mapping      json.RawMessage   `json:"mapping"`
	Illustration IllustrationState `json:"illustration"`
	DG           *DGState          `json:"dg,omitempty"`
	Note         string            `json:"note,omitempty"`
	Rank         int               `json:"rank"`
}

// DGState serializes a materialized D(G) relation: one shared scheme
// and the tuples in relation order.
type DGState struct {
	Name   string         `json:"name"`
	Scheme []string       `json:"scheme"`
	Rows   [][]ValueState `json:"rows,omitempty"`
}

// HistoryState serializes one undo snapshot.
type HistoryState struct {
	Workspaces []WorkspaceState  `json:"workspaces,omitempty"`
	Active     int               `json:"active"`
	Accepted   []json.RawMessage `json:"accepted,omitempty"`
}

// IllustrationState serializes an illustration's example set. The
// illustration's mapping pointer is rewired to the owning workspace's
// mapping on restore.
type IllustrationState struct {
	Examples []ExampleState `json:"examples,omitempty"`
}

// ExampleState serializes one example with exact tuple round-trips.
type ExampleState struct {
	AssocScheme  []string     `json:"assocScheme,omitempty"`
	Assoc        []ValueState `json:"assoc,omitempty"`
	TargetScheme []string     `json:"targetScheme,omitempty"`
	Target       []ValueState `json:"target,omitempty"`
	Positive     bool         `json:"positive"`
	Coverage     []string     `json:"coverage,omitempty"`
	Inherited    bool         `json:"inherited,omitempty"`
}

// ValueState serializes a typed value with an explicit kind tag, so
// restore is exact — unlike value.Parse, which applies heuristics
// (e.g. leading-zero strings stay strings) meant for untyped CSV text.
type ValueState struct {
	Kind string  `json:"k"`
	S    string  `json:"s,omitempty"`
	I    int64   `json:"i,omitempty"`
	F    float64 `json:"f,omitempty"`
	B    bool    `json:"b,omitempty"`
}

func valueState(v value.Value) ValueState {
	switch v.Kind() {
	case value.KindString:
		return ValueState{Kind: "s", S: v.Str()}
	case value.KindInt:
		return ValueState{Kind: "i", I: v.IntVal()}
	case value.KindFloat:
		return ValueState{Kind: "f", F: v.FloatVal()}
	case value.KindBool:
		return ValueState{Kind: "b", B: v.BoolVal()}
	default:
		return ValueState{Kind: "n"}
	}
}

func (vs ValueState) value() (value.Value, error) {
	switch vs.Kind {
	case "s":
		return value.String(vs.S), nil
	case "i":
		return value.Int(vs.I), nil
	case "f":
		return value.Float(vs.F), nil
	case "b":
		return value.Bool(vs.B), nil
	case "n", "":
		return value.Null, nil
	}
	return value.Null, fmt.Errorf("workspace: unknown value kind %q", vs.Kind)
}

func tupleState(t relation.Tuple) (names []string, vals []ValueState) {
	s := t.Scheme()
	if s == nil {
		return nil, nil
	}
	names = append(names, s.Names()...)
	for i := 0; i < s.Arity(); i++ {
		vals = append(vals, valueState(t.At(i)))
	}
	return names, vals
}

func restoreTuple(names []string, vals []ValueState) (relation.Tuple, error) {
	if len(names) != len(vals) {
		return relation.Tuple{}, fmt.Errorf("workspace: tuple state arity mismatch (%d names, %d values)", len(names), len(vals))
	}
	if len(names) == 0 {
		return relation.Tuple{}, nil
	}
	vv := make([]value.Value, len(vals))
	for i, vs := range vals {
		v, err := vs.value()
		if err != nil {
			return relation.Tuple{}, err
		}
		vv[i] = v
	}
	return relation.NewTuple(relation.NewScheme(names...), vv...), nil
}

func dgState(r *relation.Relation) *DGState {
	if r == nil {
		return nil
	}
	st := &DGState{Name: r.Name, Scheme: r.Scheme().Names()}
	for _, t := range r.Tuples() {
		row := make([]ValueState, 0, len(st.Scheme))
		for i := range st.Scheme {
			row = append(row, valueState(t.At(i)))
		}
		st.Rows = append(st.Rows, row)
	}
	return st
}

func restoreDG(st *DGState) (*relation.Relation, error) {
	if st == nil {
		return nil, nil
	}
	sch := relation.NewScheme(st.Scheme...)
	r := relation.New(st.Name, sch)
	for _, row := range st.Rows {
		if len(row) != len(st.Scheme) {
			return nil, fmt.Errorf("workspace: D(G) state arity mismatch (%d columns, %d values)", len(st.Scheme), len(row))
		}
		vv := make([]value.Value, len(row))
		for i, vs := range row {
			v, err := vs.value()
			if err != nil {
				return nil, err
			}
			vv[i] = v
		}
		r.Add(relation.NewTuple(sch, vv...))
	}
	return r, nil
}

func illustrationState(il core.Illustration) IllustrationState {
	st := IllustrationState{}
	for _, ex := range il.Examples {
		es := ExampleState{Positive: ex.Positive, Inherited: ex.Inherited}
		es.AssocScheme, es.Assoc = tupleState(ex.Assoc)
		es.TargetScheme, es.Target = tupleState(ex.Target)
		es.Coverage = append(es.Coverage, ex.Coverage...)
		st.Examples = append(st.Examples, es)
	}
	return st
}

func restoreIllustration(st IllustrationState, m *core.Mapping) (core.Illustration, error) {
	il := core.Illustration{Mapping: m}
	for _, es := range st.Examples {
		assoc, err := restoreTuple(es.AssocScheme, es.Assoc)
		if err != nil {
			return il, err
		}
		target, err := restoreTuple(es.TargetScheme, es.Target)
		if err != nil {
			return il, err
		}
		il.Examples = append(il.Examples, core.Example{
			Assoc:     assoc,
			Target:    target,
			Positive:  es.Positive,
			Coverage:  append([]string(nil), es.Coverage...),
			Inherited: es.Inherited,
		})
	}
	return il, nil
}

func (t *Tool) workspaceState(w *Workspace) (WorkspaceState, error) {
	doc, err := json.Marshal(w.Mapping)
	if err != nil {
		return WorkspaceState{}, err
	}
	return WorkspaceState{
		ID:           w.ID,
		Mapping:      doc,
		Illustration: illustrationState(w.Illustration),
		DG:           dgState(w.dg),
		Note:         w.Note,
		Rank:         w.Rank,
	}, nil
}

// restoreMapping parses a mapping document, re-pointing the parsed
// target at the tool's own target relation when they agree (the JSON
// form keeps only attribute names, not declared types).
func (t *Tool) restoreMapping(doc json.RawMessage) (*core.Mapping, error) {
	m, err := core.UnmarshalMapping(doc)
	if err != nil {
		return nil, err
	}
	if t.Target != nil && m.Target.String() == t.Target.String() {
		m.Target = t.Target
	}
	return m, nil
}

func (t *Tool) restoreWorkspace(st WorkspaceState) (*Workspace, error) {
	m, err := t.restoreMapping(st.Mapping)
	if err != nil {
		return nil, err
	}
	il, err := restoreIllustration(st.Illustration, m)
	if err != nil {
		return nil, err
	}
	dg, err := restoreDG(st.DG)
	if err != nil {
		return nil, err
	}
	return &Workspace{ID: st.ID, Mapping: m, Illustration: il, dg: dg, Note: st.Note, Rank: st.Rank}, nil
}

func (t *Tool) snapshotState(snap snapshot) (HistoryState, error) {
	hs := HistoryState{Active: snap.active}
	for _, w := range snap.workspaces {
		ws, err := t.workspaceState(w)
		if err != nil {
			return hs, err
		}
		hs.Workspaces = append(hs.Workspaces, ws)
	}
	for _, m := range snap.accepted {
		doc, err := json.Marshal(m)
		if err != nil {
			return hs, err
		}
		hs.Accepted = append(hs.Accepted, doc)
	}
	return hs, nil
}

func (t *Tool) restoreSnapshot(hs HistoryState) (snapshot, error) {
	snap := snapshot{active: hs.Active}
	for _, ws := range hs.Workspaces {
		w, err := t.restoreWorkspace(ws)
		if err != nil {
			return snap, err
		}
		snap.workspaces = append(snap.workspaces, w)
	}
	for _, doc := range hs.Accepted {
		m, err := t.restoreMapping(doc)
		if err != nil {
			return snap, err
		}
		snap.accepted = append(snap.accepted, m)
	}
	return snap, nil
}

// SnapshotState captures the tool's complete session state in a
// serializable form. The instance, knowledge, and index are excluded;
// see the package comment above.
func (t *Tool) SnapshotState() (ToolState, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := ToolState{
		MaxWalkLen: t.MaxWalkLen,
		Active:     t.active,
		NextID:     t.nextID,
		OpSeq:      t.opSeq,
		OpLog:      append([]OpRecord(nil), t.opLog...),
	}
	cur, err := t.snapshotState(snapshot{workspaces: t.workspaces, active: t.active, accepted: t.accepted})
	if err != nil {
		return ToolState{}, err
	}
	st.Workspaces, st.Accepted = cur.Workspaces, cur.Accepted
	for _, snap := range t.history {
		hs, err := t.snapshotState(snap)
		if err != nil {
			return ToolState{}, err
		}
		st.History = append(st.History, hs)
	}
	return st, nil
}

// RestoreState replaces the tool's session state with a previously
// captured ToolState. The tool must already have its instance,
// knowledge, index, and target (i.e. the owner re-ran session creation
// and any row inserts first).
func (t *Tool) RestoreState(st ToolState) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, err := t.restoreSnapshot(HistoryState{Workspaces: st.Workspaces, Active: st.Active, Accepted: st.Accepted})
	if err != nil {
		return err
	}
	var history []snapshot
	for _, hs := range st.History {
		snap, err := t.restoreSnapshot(hs)
		if err != nil {
			return err
		}
		history = append(history, snap)
	}
	if st.MaxWalkLen > 0 {
		t.MaxWalkLen = st.MaxWalkLen
	}
	t.workspaces = cur.workspaces
	t.active = cur.active
	t.accepted = cur.accepted
	t.history = history
	t.nextID = st.NextID
	t.opSeq = st.OpSeq
	t.opLog = append([]OpRecord(nil), st.OpLog...)
	return nil
}
