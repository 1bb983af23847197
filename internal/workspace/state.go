package workspace

import (
	"encoding/json"
	"fmt"

	"clio/internal/core"
	"clio/internal/relation"
	"clio/internal/value"
)

// Tool state serialization: ToolState captures everything a Tool
// accumulated since its construction that cannot be recomputed —
// workspaces with their mappings and illustrations, the accepted set,
// the undo history, and the op log — in a JSON-stable form. A serving
// layer embeds it in journal "snapshot" records so replay cost is
// bounded by ops since the last snapshot instead of total session
// history.
//
// A workspace's D(G) is left out: Definitions 3.5–3.11 make it a
// function of the query graph and the instance alone. A restored
// workspace starts without one and computes it with fd.Compute when
// first read or edited, in the canonical row order every D(G) producer
// shares, so a restored session renders the same bytes. Illustrations
// are kept: each depends on the order of the operators that evolved
// it (Section 5.3).
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
// core mapping JSON document. A state written with each workspace's
// D(G) under a "dg" key still decodes: the key is ignored.
type WorkspaceState struct {
	ID           int               `json:"id"`
	Mapping      json.RawMessage   `json:"mapping"`
	Illustration IllustrationState `json:"illustration"`
	Note         string            `json:"note,omitempty"`
	Rank         int               `json:"rank"`
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
	sch, err := relation.SchemeFrom(names)
	if err != nil {
		return relation.Tuple{}, err
	}
	return relation.NewTuple(sch, vv...), nil
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
	return &Workspace{ID: st.ID, Mapping: m, Illustration: il, Note: st.Note, Rank: st.Rank}, nil
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
// serializable form. The instance, knowledge and D(G)s are excluded;
// see the comment at the top of this file.
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
