// Package workspace implements Clio's mapping framework (Section 6):
// a set of workspaces each holding one alternative mapping with its
// illustration, an active workspace, ranking of alternatives, mapping
// confirmation with reuse of earlier decisions, and the WYSIWYG target
// view that always reflects the active mapping (plus every previously
// accepted mapping, since a target relation may be populated by many
// mappings, Section 6.2).
package workspace

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"clio/internal/core"
	"clio/internal/discovery"
	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// Workspace holds one alternative mapping and its current
// illustration.
type Workspace struct {
	ID           int
	Mapping      *core.Mapping
	Illustration core.Illustration
	// Note describes how this alternative arose (walk path, chase
	// edge, ...), used when ranking ties and for display.
	Note string
	// Rank is the position the generating operator assigned (0 is the
	// most likely alternative).
	Rank int
	// dg caches the mapping's D(G): built by fd.Compute, maintained
	// across row edits (fd.MaintainRows), and reused by TargetView.
	dg *relation.Relation
	// dgm is the delta-maintainable form of dg (full subsumption state,
	// not just the maximal front), built lazily on the first row edit
	// and kept by successful maintenance. Never serialized: a restored
	// session rebuilds it on its next edit, which renders identically
	// because Materialized.Rel() is canonical.
	dgm *fd.Materialized
	// view memoizes TargetView computed while this workspace was the
	// active one; cleared wherever dg is replaced or dropped.
	view viewMemo
}

// viewMemo is one computed target view with the state it was computed
// under: the accepted mappings and the instance version.
type viewMemo struct {
	rel      *relation.Relation
	accepted []*core.Mapping
	version  uint64
}

// valid reports whether the memo holds the view for these accepted
// mappings (compared element-wise by pointer) and instance version.
func (m *viewMemo) valid(accepted []*core.Mapping, version uint64) bool {
	return m.rel != nil && m.version == version && slices.Equal(m.accepted, accepted)
}

// Tool is one Clio session: the source instance, its join knowledge,
// the target relation, the workspaces, and the accepted mappings.
type Tool struct {
	Instance  *relation.Instance
	Knowledge *discovery.Knowledge
	Target    *schema.Relation

	// MaxWalkLen bounds walk path enumeration (default 3).
	MaxWalkLen int

	// mu guards every field below. Public methods lock it, so one
	// Tool can be shared by concurrent callers (e.g. the serve layer);
	// unexported *Locked variants exist for internal cross-calls.
	// Returned workspaces, mappings and target views are read-only
	// snapshots.
	mu         sync.Mutex
	workspaces []*Workspace
	active     int // index into workspaces, -1 when none
	accepted   []*core.Mapping
	nextID     int
	// history remembers previous workspace sets so operators can be
	// undone (the paper's "old workspaces could be remembered to make
	// backing out changes more efficient").
	history []snapshot
	// opLog records the operators applied this session (see oplog.go).
	opLog []OpRecord
	opSeq int
}

// snapshot preserves one workspace-set state for Undo.
type snapshot struct {
	workspaces []*Workspace
	active     int
	accepted   []*core.Mapping
}

// New creates a tool for the instance and target. Join knowledge
// combines declared foreign keys with mined inclusion dependencies
// when mineINDs is set.
func New(ctx context.Context, in *relation.Instance, target *schema.Relation, mineINDs bool) *Tool {
	ctx, span := obs.StartSpan(ctx, "workspace.new")
	defer span.End()
	return &Tool{
		Instance:   in,
		Knowledge:  discovery.BuildKnowledge(ctx, in, mineINDs, 1),
		Target:     target,
		MaxWalkLen: 3,
		active:     -1,
		nextID:     1,
	}
}

// Active returns the active workspace, or nil.
func (t *Tool) Active() *Workspace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.activeLocked()
}

// activeLocked is Active for callers already holding t.mu.
func (t *Tool) activeLocked() *Workspace {
	if t.active < 0 || t.active >= len(t.workspaces) {
		return nil
	}
	return t.workspaces[t.active]
}

// Workspaces returns the current workspaces in rank order.
func (t *Tool) Workspaces() []*Workspace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Workspace(nil), t.workspaces...)
}

// Accepted returns the confirmed mappings.
func (t *Tool) Accepted() []*core.Mapping {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*core.Mapping(nil), t.accepted...)
}

// newWorkspace wraps a mapping, computing its illustration: evolved
// from the previous active illustration when one exists (continuity,
// Section 5.3), otherwise a fresh sufficient illustration.
func (t *Tool) newWorkspace(ctx context.Context, m *core.Mapping, note string, rank int) (*Workspace, error) {
	ctx, span := obs.StartSpan(ctx, "workspace.new_workspace")
	defer span.End()
	span.SetStr("mapping", m.Name)
	var dg *relation.Relation
	var err error
	if m.Graph.NodeCount() == 0 {
		dg = relation.New("D(G)", relation.NewScheme())
	} else if dg, err = fd.Compute(ctx, m.Graph, t.Instance); err != nil {
		return nil, err
	}
	var il core.Illustration
	if prev := t.activeLocked(); prev != nil && len(prev.Illustration.Examples) > 0 {
		ev, err := core.EvolveOnDG(ctx, prev.Illustration, m, t.Instance, dg)
		if err == nil {
			il = ev.Illustration
		} else {
			// Non-extending change (e.g. a fresh start): fall back.
			full, err := core.ExamplesOn(ctx, m, t.Instance, dg)
			if err != nil {
				return nil, err
			}
			il = core.SelectSufficient(ctx, m, full)
		}
	} else {
		full, err := core.ExamplesOn(ctx, m, t.Instance, dg)
		if err != nil {
			return nil, err
		}
		il = core.SelectSufficient(ctx, m, full)
	}
	w := &Workspace{ID: t.nextID, Mapping: m, Illustration: il, Note: note, Rank: rank, dg: dg}
	t.nextID++
	return w, nil
}

// pushHistory remembers the current state for Undo. History is capped
// to the last 32 states.
func (t *Tool) pushHistory() {
	snap := snapshot{
		workspaces: append([]*Workspace(nil), t.workspaces...),
		active:     t.active,
		accepted:   append([]*core.Mapping(nil), t.accepted...),
	}
	t.history = append(t.history, snap)
	if len(t.history) > 32 {
		t.history = t.history[len(t.history)-32:]
	}
}

// beginTxLocked snapshots the mutable workspace-set state and returns
// a restore func. Multi-step operators (AddCorrespondence's reuse path
// confirms, then computes alternatives) call it up front and restore
// wholesale when a later step fails, so an error can never leave a
// half-applied state — e.g. a confirm that stuck without its
// alternatives.
func (t *Tool) beginTxLocked() func() {
	ws := append([]*Workspace(nil), t.workspaces...)
	active := t.active
	accepted := append([]*core.Mapping(nil), t.accepted...)
	hist := len(t.history)
	return func() {
		t.workspaces = ws
		t.active = active
		t.accepted = accepted
		if len(t.history) > hist {
			t.history = t.history[:hist]
		}
	}
}

// Undo restores the workspace set as it was before the last mutating
// operator (correspondence, walk, chase, filter, confirm). It fails
// when there is nothing to undo.
func (t *Tool) Undo() (err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer func(start time.Time) { t.logOp(nil, "undo", "", start, err) }(time.Now())
	if len(t.history) == 0 {
		return fmt.Errorf("workspace: nothing to undo")
	}
	snap := t.history[len(t.history)-1]
	t.history = t.history[:len(t.history)-1]
	t.workspaces = snap.workspaces
	t.active = snap.active
	t.accepted = snap.accepted
	return nil
}

// setAlternatives replaces the current workspaces with the given
// alternatives (already ranked) and activates the first, with t.mu
// held by the caller — the paper's
// behaviour after a walk or chase: "new workspaces are created (one of
// which is chosen as the new active workspace), and the old workspaces
// are discarded" (but remembered in history for Undo).
func (t *Tool) setAlternatives(ctx context.Context, ms []*core.Mapping, notes []string) error {
	var ws []*Workspace
	for i, m := range ms {
		note := ""
		if i < len(notes) {
			note = notes[i]
		}
		w, err := t.newWorkspace(ctx, m, note, i)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	t.pushHistory()
	t.workspaces = ws
	if len(ws) > 0 {
		t.active = 0
	} else {
		t.active = -1
	}
	return nil
}

// Start opens the first workspace around an empty mapping.
func (t *Tool) Start(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer func(start time.Time) { t.logOp(nil, "start", name, start, nil) }(time.Now())
	m := core.NewMapping(name, t.Target)
	w := &Workspace{ID: t.nextID, Mapping: m, Note: "empty mapping"}
	t.nextID++
	t.workspaces = []*Workspace{w}
	t.active = 0
	return nil
}

// Use activates the workspace with the given ID.
func (t *Tool) Use(id int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, w := range t.workspaces {
		if w.ID == id {
			t.active = i
			return nil
		}
	}
	return fmt.Errorf("workspace: no workspace %d", id)
}

// Rotate activates the next workspace (cyclically).
func (t *Tool) Rotate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.workspaces) > 1 {
		t.active = (t.active + 1) % len(t.workspaces)
	}
}

// Delete removes a workspace ("if the user wishes to eliminate an
// alternative, she can delete the associated workspace").
func (t *Tool) Delete(id int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, w := range t.workspaces {
		if w.ID != id {
			continue
		}
		t.workspaces = append(t.workspaces[:i], t.workspaces[i+1:]...)
		switch {
		case len(t.workspaces) == 0:
			t.active = -1
		case t.active >= len(t.workspaces):
			t.active = len(t.workspaces) - 1
		case t.active > i:
			t.active--
		}
		return nil
	}
	return fmt.Errorf("workspace: no workspace %d", id)
}

// Confirm accepts the active workspace's mapping as correct (so far):
// the mapping joins the accepted set and all alternative workspaces
// are deleted, leaving the confirmed one active.
func (t *Tool) Confirm() (err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.confirmLocked()
}

// confirmLocked is Confirm for callers already holding t.mu.
func (t *Tool) confirmLocked() (err error) {
	defer func(start time.Time) { t.logOp(nil, "confirm", "", start, err) }(time.Now())
	w := t.activeLocked()
	if w == nil {
		return fmt.Errorf("workspace: nothing to confirm")
	}
	t.pushHistory()
	t.accepted = append(t.accepted, w.Mapping.Clone())
	t.workspaces = []*Workspace{w}
	t.active = 0
	return nil
}

// TargetView evaluates the WYSIWYG target: the union of every accepted
// mapping's result and the active mapping's result (Sections 6.1–6.2).
// The view is memoized on the active workspace: until the active
// workspace, the accepted mappings or the instance version change,
// later calls return the same relation without recomputing it or
// charging a budget. The result is a read-only shared snapshot, like
// the workspaces and mappings the tool returns.
func (t *Tool) TargetView(ctx context.Context) (*relation.Relation, error) {
	ctx, span := obs.StartSpan(ctx, "workspace.target_view")
	defer span.End()
	t.mu.Lock()
	defer t.mu.Unlock()
	act := t.activeLocked()
	version := t.Instance.Version()
	if act != nil && act.view.valid(t.accepted, version) {
		span.SetStr("memo", "hit")
		span.SetInt("tuples", int64(act.view.rel.Len()))
		return act.view.rel, nil
	}
	span.SetStr("memo", "miss")
	out := relation.New(t.Target.Name, relation.SchemeFor(t.Target))
	add := func(m *core.Mapping) error {
		if m.Graph.NodeCount() == 0 {
			return nil
		}
		dg, err := m.DG(ctx, t.Instance)
		if err != nil {
			return err
		}
		for _, tp := range m.EvaluateOn(dg).Tuples() {
			out.Add(tp)
		}
		return nil
	}
	seen := map[string]bool{}
	for _, m := range t.accepted {
		sig := m.String()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		if err := add(m); err != nil {
			return nil, err
		}
	}
	if act != nil && !seen[act.Mapping.String()] {
		if act.dg != nil && act.Mapping.Graph.NodeCount() > 0 {
			// Reuse the cached D(G).
			for _, tp := range act.Mapping.EvaluateOn(act.dg).Tuples() {
				out.Add(tp)
			}
		} else if err := add(act.Mapping); err != nil {
			return nil, err
		}
	}
	res := out.Distinct()
	if act != nil {
		act.view = viewMemo{rel: res, accepted: slices.Clone(t.accepted), version: version}
	}
	span.SetInt("tuples", int64(res.Len()))
	return res, nil
}

// ApplyRows inserts (del=false) or deletes (del=true) one row of a
// source relation and maintains the active workspace's D(G),
// illustration, and target view continuously: the paper's WYSIWYG
// claim applied to data edits, in O(delta) via fd.MaintainRows rather
// than O(instance). A delete removes the first row equal to the given
// values and fails if none exists. Non-active workspaces drop their
// cached D(G) (they recompute on next activation); the active one is
// delta-maintained.
//
// On a maintenance failure (budget abort, cancellation, or a panic,
// which keeps unwinding) the instance mutation is rolled back, so a
// failed edit leaves the session exactly as it was — the journal-replay
// invariant depends on ops being all-or-nothing. Only a successful edit
// stays in the instance the chase scans.
func (t *Tool) ApplyRows(ctx context.Context, relName string, vals []value.Value, del bool) (err error) {
	ctx, span := obs.StartSpan(ctx, "workspace.rows")
	defer span.End()
	t.mu.Lock()
	defer t.mu.Unlock()
	verb := "insert"
	if del {
		verb = "delete"
	}
	defer func(start time.Time) { t.logOp(ctx, "rows", verb+" "+relName, start, err) }(time.Now())
	rel := t.Instance.Relation(relName)
	if rel == nil {
		return fmt.Errorf("workspace: no relation %q", relName)
	}
	if len(vals) != rel.Scheme().Arity() {
		return fmt.Errorf("workspace: relation %s has arity %d, got %d values",
			relName, rel.Scheme().Arity(), len(vals))
	}
	tup := relation.NewTuple(rel.Scheme(), vals...)
	removedAt := -1
	if del {
		removedAt = rel.IndexOf(tup)
		if removedAt < 0 {
			return fmt.Errorf("workspace: relation %s has no row %v", relName, tup)
		}
		rel.RemoveAt(removedAt)
	} else {
		rel.Add(tup)
	}
	done := false
	defer func() {
		if done {
			return
		}
		// Roll back the instance mutation: the op is journaled only on
		// success, so the instance and the journal must agree.
		if del {
			rel.InsertAt(removedAt, tup)
		} else {
			rel.RemoveAt(rel.Len() - 1)
		}
	}()
	if err := t.maintainRowsLocked(ctx, relName, tup, del); err != nil {
		return err
	}
	done = true
	return nil
}

// maintainRowsLocked propagates one already-applied row edit into the
// active workspace's materialized D(G) and illustration. Every other
// workspace drops its caches (losing a cache is safe; keeping a stale
// one is not), including those only the undo history still holds:
// Undo restores them as they are.
func (t *Tool) maintainRowsLocked(ctx context.Context, base string, tup relation.Tuple, del bool) error {
	act := t.activeLocked()
	drop := func(ws []*Workspace) {
		for _, w := range ws {
			if w != act {
				w.dg, w.dgm, w.view = nil, nil, viewMemo{}
			}
		}
	}
	drop(t.workspaces)
	for _, snap := range t.history {
		drop(snap.workspaces)
	}
	if act == nil || act.Mapping.Graph.NodeCount() == 0 || !fd.GraphReadsBase(act.Mapping.Graph, base) {
		// Nothing to maintain: no active mapping, or its graph never
		// reads the edited relation, so its D(G) is untouched.
		obs.Note(ctx, "dg_maint", "none")
		return nil
	}
	// A delta may half-apply before it fails or panics, so the old
	// materialization is dead unless maintenance hands one back. The
	// caller rolls the instance back, so the old act.dg still describes
	// the (restored) state and stays.
	mat := act.dgm
	act.dgm = nil
	dg, mat, _, err := fd.MaintainRows(ctx, mat, act.Mapping.Graph, t.Instance, base, tup, del)
	if err != nil {
		return err
	}
	act.dg, act.dgm, act.view = dg, mat, viewMemo{}
	// The illustration rides the new D(G): examples on unchanged
	// associations are inherited, the rest re-selected (Section 5.3
	// continuity). A failed evolution falls back to a fresh selection;
	// if even that fails, the old illustration is kept — the view is
	// already correct, the illustration merely lags one edit.
	if len(act.Illustration.Examples) > 0 {
		if ev, eerr := core.EvolveOnDG(ctx, act.Illustration, act.Mapping, t.Instance, dg); eerr == nil {
			act.Illustration = ev.Illustration
		} else if full, ferr := core.ExamplesOn(ctx, act.Mapping, t.Instance, dg); ferr == nil {
			act.Illustration = core.SelectSufficient(ctx, act.Mapping, full)
		}
	}
	return nil
}

// AddCorrespondence applies the correspondence operator to the active
// mapping. When the target attribute is already mapped, the operator
// creates alternatives that reuse the active mapping's other
// correspondences and filters (Example 6.2: a second way to compute
// the same target field); otherwise the alternatives extend the
// active mapping directly. New alternatives become the workspaces.
func (t *Tool) AddCorrespondence(ctx context.Context, c core.Correspondence) (err error) {
	ctx, span := obs.StartSpan(ctx, "workspace.add_correspondence")
	defer span.End()
	t.mu.Lock()
	defer t.mu.Unlock()
	defer func(start time.Time) { t.logOp(ctx, "correspondence", c.String(), start, err) }(time.Now())
	w := t.activeLocked()
	if w == nil {
		return fmt.Errorf("workspace: no active workspace")
	}
	base := w.Mapping
	note := "correspondence " + c.String()
	restore := t.beginTxLocked()
	if _, dup := base.CorrFor(c.Target.Attr); dup {
		// Reuse: copy everything except the existing correspondence
		// for this attribute, then accept the current mapping so the
		// target keeps its first computation.
		if err := t.confirmLocked(); err != nil {
			return err
		}
		base = base.WithoutCorrespondence(c.Target.Attr)
		base.Name = fmt.Sprintf("%s+%s", base.Name, c.Target.Attr)
		note = "alternative computation of " + c.Target.Attr
	}
	alts, err := core.AddCorrespondence(ctx, base, t.Knowledge, c, t.MaxWalkLen)
	if err != nil {
		restore()
		return err
	}
	notes := make([]string, len(alts))
	for i := range alts {
		notes[i] = fmt.Sprintf("%s (alternative %d)", note, i+1)
	}
	span.SetInt("alternatives", int64(len(alts)))
	if err := t.setAlternatives(ctx, alts, notes); err != nil {
		restore()
		return err
	}
	return nil
}

// Walk applies the data walk operator to the active mapping and
// replaces the workspaces with the ranked alternatives.
func (t *Tool) Walk(ctx context.Context, startNode, endBase string) (err error) {
	ctx, span := obs.StartSpan(ctx, "workspace.walk")
	defer span.End()
	t.mu.Lock()
	defer t.mu.Unlock()
	defer func(start time.Time) { t.logOp(ctx, "walk", startNode+" -> "+endBase, start, err) }(time.Now())
	w := t.activeLocked()
	if w == nil {
		return fmt.Errorf("workspace: no active workspace")
	}
	opts, err := core.DataWalk(ctx, w.Mapping, t.Knowledge, startNode, endBase, t.MaxWalkLen)
	if err != nil {
		return err
	}
	if len(opts) == 0 {
		return fmt.Errorf("workspace: no walk from %s to %s", startNode, endBase)
	}
	// Rank by (path length, least perturbation to the active mapping,
	// description) — the Section 6.1 heuristics.
	base := w.Mapping
	sort.SliceStable(opts, func(i, j int) bool {
		if len(opts[i].Path) != len(opts[j].Path) {
			return len(opts[i].Path) < len(opts[j].Path)
		}
		pi := core.PerturbationScore(base, opts[i].Mapping)
		pj := core.PerturbationScore(base, opts[j].Mapping)
		if pi != pj {
			return pi < pj
		}
		return opts[i].Describe() < opts[j].Describe()
	})
	ms := make([]*core.Mapping, len(opts))
	notes := make([]string, len(opts))
	for i, o := range opts {
		ms[i] = o.Mapping
		notes[i] = o.Describe()
	}
	span.SetInt("alternatives", int64(len(ms)))
	return t.setAlternatives(ctx, ms, notes)
}

// Chase applies the data chase operator to the active mapping and
// replaces the workspaces with the alternatives. It finds the value's
// occurrences by scanning the live instance, so row edits reach it
// with nothing to maintain; at session sizes one scan costs less than
// building an index.
func (t *Tool) Chase(ctx context.Context, fromCol string, v value.Value) (err error) {
	ctx, span := obs.StartSpan(ctx, "workspace.chase")
	defer span.End()
	t.mu.Lock()
	defer t.mu.Unlock()
	defer func(start time.Time) { t.logOp(ctx, "chase", fmt.Sprintf("%s = %v", fromCol, v), start, err) }(time.Now())
	w := t.activeLocked()
	if w == nil {
		return fmt.Errorf("workspace: no active workspace")
	}
	opts, err := core.DataChase(ctx, w.Mapping, discovery.ScanIndex(t.Instance), fromCol, v)
	if err != nil {
		return err
	}
	if len(opts) == 0 {
		return fmt.Errorf("workspace: value %v occurs nowhere new", v)
	}
	ms := make([]*core.Mapping, len(opts))
	notes := make([]string, len(opts))
	for i, o := range opts {
		ms[i] = o.Mapping
		notes[i] = o.Describe()
	}
	span.SetInt("alternatives", int64(len(ms)))
	return t.setAlternatives(ctx, ms, notes)
}

// AddSourceFilter adds a C_S predicate to the active mapping in place
// (trimming does not change the graph; the illustration evolves).
func (t *Tool) AddSourceFilter(ctx context.Context, p expr.Expr) error {
	return t.replaceActive(ctx, func(m *core.Mapping) *core.Mapping { return m.WithSourceFilter(p) }, "source filter "+p.String())
}

// AddTargetFilter adds a C_T predicate to the active mapping in place.
func (t *Tool) AddTargetFilter(ctx context.Context, p expr.Expr) error {
	return t.replaceActive(ctx, func(m *core.Mapping) *core.Mapping { return m.WithTargetFilter(p) }, "target filter "+p.String())
}

func (t *Tool) replaceActive(ctx context.Context, f func(*core.Mapping) *core.Mapping, note string) (err error) {
	ctx, span := obs.StartSpan(ctx, "workspace.replace_active")
	defer span.End()
	t.mu.Lock()
	defer t.mu.Unlock()
	defer func(start time.Time) { t.logOp(ctx, "filter", note, start, err) }(time.Now())
	w := t.activeLocked()
	if w == nil {
		return fmt.Errorf("workspace: no active workspace")
	}
	m := f(w.Mapping)
	nw, err := t.newWorkspace(ctx, m, note, 0)
	if err != nil {
		return err
	}
	t.pushHistory()
	t.workspaces[t.active] = nw
	return nil
}

// RankWorkspaces re-sorts workspaces by (Rank, ID), keeping the active
// pointer on the same workspace.
func (t *Tool) RankWorkspaces() {
	t.mu.Lock()
	defer t.mu.Unlock()
	act := t.activeLocked()
	sort.SliceStable(t.workspaces, func(i, j int) bool {
		if t.workspaces[i].Rank != t.workspaces[j].Rank {
			return t.workspaces[i].Rank < t.workspaces[j].Rank
		}
		return t.workspaces[i].ID < t.workspaces[j].ID
	})
	for i, w := range t.workspaces {
		if w == act {
			t.active = i
		}
	}
}
