package workspace

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"clio/internal/core"
	"clio/internal/obs"
	"clio/internal/paperdb"
	"clio/internal/schema"
	"clio/internal/value"
)

// sessionTool drives a tool through a correspondence, a walk, a
// confirm and a chase, so its state has workspaces with examples, an
// accepted mapping, undo history and an op log.
func sessionTool(tb testing.TB) *Tool {
	tb.Helper()
	ctx := context.Background()
	tl := newTool(tb)
	if err := tl.Start("kids"); err != nil {
		tb.Fatal(err)
	}
	if err := tl.AddCorrespondence(ctx, core.Identity("Children.ID", schema.Col("Kids", "ID"))); err != nil {
		tb.Fatal(err)
	}
	if err := tl.Walk(ctx, "Children", "PhoneDir"); err != nil {
		tb.Fatal(err)
	}
	if err := tl.Confirm(); err != nil {
		tb.Fatal(err)
	}
	if err := tl.Chase(ctx, "Children.ID", value.String("002")); err != nil {
		tb.Fatal(err)
	}
	return tl
}

// SnapshotState/RestoreState must round-trip a session exactly: a tool
// rebuilt from the serialized state renders the same canonical op log,
// the same workspace set, and the same target view — and stays fully
// live (undo history, further operators).
func TestToolStateRoundTrip(t *testing.T) {
	ctx := context.Background()
	tl := sessionTool(t)

	st, err := tl.SnapshotState()
	if err != nil {
		t.Fatalf("SnapshotState: %v", err)
	}
	// The state must survive JSON (it is embedded in journal records).
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	var st2 ToolState
	if err := json.Unmarshal(data, &st2); err != nil {
		t.Fatalf("unmarshal state: %v", err)
	}

	tl2 := newTool(t)
	if err := tl2.RestoreState(st2); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}

	if got, want := tl2.OpLogCanonical(), tl.OpLogCanonical(); got != want {
		t.Errorf("restored op log differs:\n--- want\n%s--- got\n%s", want, got)
	}
	if got, want := tl2.OpLogString(), tl.OpLogString(); got != want {
		t.Errorf("restored op log (with durations) differs:\n--- want\n%s--- got\n%s", want, got)
	}
	ws, ws2 := tl.Workspaces(), tl2.Workspaces()
	if len(ws2) != len(ws) {
		t.Fatalf("restored %d workspaces, want %d", len(ws2), len(ws))
	}
	for i := range ws {
		if ws2[i].ID != ws[i].ID || ws2[i].Note != ws[i].Note || ws2[i].Rank != ws[i].Rank {
			t.Errorf("workspace %d metadata differs: got {%d %q %d} want {%d %q %d}",
				i, ws2[i].ID, ws2[i].Note, ws2[i].Rank, ws[i].ID, ws[i].Note, ws[i].Rank)
		}
		if ws2[i].Mapping.String() != ws[i].Mapping.String() {
			t.Errorf("workspace %d mapping differs:\n--- want\n%s\n--- got\n%s",
				i, ws[i].Mapping, ws2[i].Mapping)
		}
		if len(ws2[i].Illustration.Examples) != len(ws[i].Illustration.Examples) {
			t.Errorf("workspace %d: %d restored examples, want %d",
				i, len(ws2[i].Illustration.Examples), len(ws[i].Illustration.Examples))
		}
		if ws2[i].Illustration.Mapping != ws2[i].Mapping {
			t.Errorf("workspace %d: restored illustration not rewired to its mapping", i)
		}
	}
	if len(tl2.Accepted()) != len(tl.Accepted()) {
		t.Fatalf("restored %d accepted mappings, want %d", len(tl2.Accepted()), len(tl.Accepted()))
	}

	view, err := tl.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	view2, err := tl2.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if view.String() != view2.String() {
		t.Errorf("restored target view differs:\n--- want\n%s\n--- got\n%s", view, view2)
	}

	// The restored tool is live: undo pops the chase, and the ID
	// allocator continues without collisions.
	if err := tl2.Undo(); err != nil {
		t.Fatalf("Undo on restored tool: %v", err)
	}
	if err := tl.Undo(); err != nil {
		t.Fatal(err)
	}
	uv, _ := tl.TargetView(ctx)
	uv2, err := tl2.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if uv.String() != uv2.String() {
		t.Errorf("post-undo views diverge:\n--- want\n%s\n--- got\n%s", uv, uv2)
	}
	if err := tl2.Walk(ctx, "Children", "Parents"); err != nil {
		t.Fatalf("Walk on restored tool: %v", err)
	}
}

// Tagged value serialization must restore values exactly, including
// the cases value.Parse would mangle (leading-zero strings, typed
// ints vs strings).
func TestValueStateExactRoundTrip(t *testing.T) {
	vals := []value.Value{
		value.Null,
		value.String("007"), // value.Parse would keep string, but tag makes it explicit
		value.String("-"),   // value.Parse would turn this into Null
		value.Int(7),
		value.Float(2.5),
		value.Bool(true),
		value.String(""),
	}
	for _, v := range vals {
		vs := valueState(v)
		data, err := json.Marshal(vs)
		if err != nil {
			t.Fatal(err)
		}
		var back ValueState
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.value()
		if err != nil {
			t.Fatalf("restore %v: %v", v, err)
		}
		if got.Kind() != v.Kind() || got.Key() != v.Key() {
			t.Errorf("value %v round-tripped to %v", v, got)
		}
	}
}

var _ = paperdb.Instance // keep the import used if helpers move

// A state that names one attribute twice in an example's association
// or target scheme is refused with an error instead of a panic:
// restore reads journal bytes, and a panic there stops a journaled
// server from booting.
func TestRestoreStateRejectsRepeatedNames(t *testing.T) {
	st, err := sessionTool(t).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	ws := st.Workspaces[0]
	if len(ws.Illustration.Examples) == 0 || len(ws.Illustration.Examples[0].AssocScheme) < 2 ||
		len(ws.Illustration.Examples[0].TargetScheme) < 2 {
		t.Fatal("the first workspace has no example to corrupt")
	}
	repeat := func(names []string) []string {
		out := make([]string, len(names))
		for i := range out {
			out[i] = names[0]
		}
		return out
	}
	corrupt := func(f func(*ExampleState)) ToolState {
		bad := st
		bad.Workspaces = append([]WorkspaceState(nil), st.Workspaces...)
		exs := append([]ExampleState(nil), ws.Illustration.Examples...)
		f(&exs[0])
		bad.Workspaces[0].Illustration = IllustrationState{Examples: exs}
		return bad
	}
	for name, bad := range map[string]ToolState{
		"assocScheme":  corrupt(func(ex *ExampleState) { ex.AssocScheme = repeat(ex.AssocScheme) }),
		"targetScheme": corrupt(func(ex *ExampleState) { ex.TargetScheme = repeat(ex.TargetScheme) }),
	} {
		err := newTool(t).RestoreState(bad)
		if err == nil || !strings.Contains(err.Error(), "duplicate attribute") {
			t.Errorf("%s: RestoreState error = %v, want a repeated-attribute error", name, err)
		}
	}
}

// testdata/legacy_dg_state.json holds a state as snapshots carried it
// before D(G)s were left out (commit 9f5df5b): sessionTool's session
// plus two correspondences, every workspace with its D(G) rows under a
// "dg" key, beside the target views that code rendered before and
// after an undo. The key is ignored on restore; the restored tool
// computes each D(G) when a view first needs it, keeps it, and renders
// the same views.
func TestRestoreStateIgnoresLegacyDG(t *testing.T) {
	ctx := context.Background()
	data, err := os.ReadFile("testdata/legacy_dg_state.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		State    json.RawMessage `json:"state"`
		View     string          `json:"view"`
		UndoView string          `json:"undoView"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(golden.State, []byte(`"dg":{`)) {
		t.Fatal("the legacy state carries no dg key")
	}
	var st ToolState
	if err := json.Unmarshal(golden.State, &st); err != nil {
		t.Fatal(err)
	}
	tl := newTool(t)
	if err := tl.RestoreState(st); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	act := tl.Active()
	if act == nil || act.dg != nil {
		t.Fatal("a restored active workspace must exist and start without a D(G)")
	}
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(wasEnabled)
	computes := func() int64 { // fd.Compute calls, memo hits included
		return obs.GetCounter("fd.cache.hits").Value() + obs.GetCounter("fd.cache.misses").Value() +
			obs.GetCounter("fd.compute.calls").Value()
	}
	before := computes()
	view, err := tl.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	first := computes() - before
	if view.String() != golden.View {
		t.Errorf("restored view differs:\n--- want\n%s\n--- got\n%s", golden.View, view)
	}
	dg := act.dg
	if dg == nil {
		t.Fatal("TargetView did not keep the D(G) it computed")
	}
	// A view miss recomputes only the accepted mappings' D(G)s: the
	// active workspace's is kept.
	before = computes()
	act.view = viewMemo{}
	if _, err := tl.TargetView(ctx); err != nil || act.dg != dg || computes()-before != first-1 {
		t.Errorf("a view miss asked fd.Compute %d times, the first view %d; want one fewer (err %v)",
			computes()-before, first, err)
	}
	if err := tl.Undo(); err != nil {
		t.Fatal(err)
	}
	undone, err := tl.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if undone.String() != golden.UndoView {
		t.Errorf("restored view after undo differs:\n--- want\n%s\n--- got\n%s", golden.UndoView, undone)
	}
}

// checkRestoreRoundTrip checks the snapshot-restore property on st: no
// state makes RestoreState panic, and the snapshot of a tool restored
// from an accepted state restores again to an equal snapshot.
func checkRestoreRoundTrip(t *testing.T, st ToolState) {
	tl := newTool(t)
	if tl.RestoreState(st) != nil {
		return
	}
	snap, err := tl.SnapshotState()
	if err != nil {
		t.Fatalf("SnapshotState of a restored tool: %v", err)
	}
	again := newTool(t)
	if err := again.RestoreState(snap); err != nil {
		t.Fatalf("a restored tool's snapshot does not restore: %v", err)
	}
	snap2, err := again.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	a, errA := json.Marshal(snap)
	b, errB := json.Marshal(snap2)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("snapshot changed on a restore (%v, %v):\n%s\n%s", errA, errB, a, b)
	}
}

// sessionStateJSON is sessionTool's state as a journal snapshot holds
// it.
func sessionStateJSON(f *testing.F) []byte {
	st, err := sessionTool(f).SnapshotState()
	if err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(st)
	if err != nil {
		f.Fatal(err)
	}
	return seed
}

// FuzzRestoreState checks snapshot restore, which decodes journal
// bytes, on byte mutations of a state: it covers JSON decoding, but
// few mutations stay JSON. FuzzRestoreStateFields reaches
// RestoreState with every input.
func FuzzRestoreState(f *testing.F) {
	f.Add(sessionStateJSON(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st ToolState
		if json.Unmarshal(data, &st) != nil {
			return
		}
		checkRestoreRoundTrip(t, st)
	})
}

// FuzzRestoreStateFields checks snapshot restore on states that decode:
// each input sets one field of sessionTool's decoded state, chosen by
// field, to a value made from s and n, and at picks which workspace or
// example when there are many.
func FuzzRestoreStateFields(f *testing.F) {
	seed := sessionStateJSON(f)
	for field := uint8(0); field < stateFields; field++ {
		f.Add(field, uint16(field), "Children.ID", int64(field)-1)
	}
	f.Fuzz(func(t *testing.T, field uint8, at uint16, s string, n int64) {
		var st ToolState
		if err := json.Unmarshal(seed, &st); err != nil {
			t.Fatal(err)
		}
		mutateState(&st, field, int(at), s, n)
		checkRestoreRoundTrip(t, st)
	})
}

// stateFields counts the fields mutateState can set.
const stateFields = 12

// mutateState sets one field of st to a value made from s and n. The
// field is field modulo stateFields; at picks the workspace (current
// or in history), example or accepted mapping, n the position inside
// a list.
func mutateState(st *ToolState, field uint8, at int, s string, n int64) {
	var wss []*WorkspaceState
	for i := range st.Workspaces {
		wss = append(wss, &st.Workspaces[i])
	}
	for h := range st.History {
		for i := range st.History[h].Workspaces {
			wss = append(wss, &st.History[h].Workspaces[i])
		}
	}
	var exs []*ExampleState
	for _, ws := range wss {
		for i := range ws.Illustration.Examples {
			exs = append(exs, &ws.Illustration.Examples[i])
		}
	}
	pick := func(size int) int { return int(uint64(n) % uint64(size)) }
	switch field % stateFields {
	case 0: // an example's association attribute name
		if ex := exs[at%len(exs)]; len(ex.AssocScheme) > 0 {
			ex.AssocScheme[pick(len(ex.AssocScheme))] = s
		}
	case 1: // an example's target attribute name
		if ex := exs[at%len(exs)]; len(ex.TargetScheme) > 0 {
			ex.TargetScheme[pick(len(ex.TargetScheme))] = s
		}
	case 2: // a value's kind
		if ex := exs[at%len(exs)]; len(ex.Assoc) > 0 {
			ex.Assoc[pick(len(ex.Assoc))].Kind = s
		}
	case 3: // a value's payload
		if ex := exs[at%len(exs)]; len(ex.Assoc) > 0 {
			v := &ex.Assoc[pick(len(ex.Assoc))]
			v.S, v.I = s, n
		}
	case 4: // a tuple's arity: one more name, or fewer values
		ex := exs[at%len(exs)]
		if n < 0 {
			ex.AssocScheme = append(ex.AssocScheme, s)
		} else {
			ex.Assoc = ex.Assoc[:pick(len(ex.Assoc)+1)]
		}
	case 5:
		st.Active = int(n)
	case 6:
		if len(st.History) > 0 {
			st.History[at%len(st.History)].Active = int(n)
		}
	case 7:
		st.NextID = int(n)
	case 8: // a string in a workspace's mapping document
		ws := wss[at%len(wss)]
		ws.Mapping = setStringLeaf(ws.Mapping, n, s)
	case 9: // a coverage category, replaced or added
		ex := exs[at%len(exs)]
		if n >= 0 && len(ex.Coverage) > 0 {
			ex.Coverage[pick(len(ex.Coverage))] = s
		} else {
			ex.Coverage = append(ex.Coverage, s)
		}
	case 10:
		wss[at%len(wss)].ID = int(n)
	case 11: // a string in an accepted mapping's document
		if len(st.Accepted) > 0 {
			i := at % len(st.Accepted)
			st.Accepted[i] = setStringLeaf(st.Accepted[i], n, s)
		}
	}
}

// setStringLeaf replaces the n-th string of a JSON document (counting
// map keys in sorted order, modulo the number of strings) with s.
func setStringLeaf(doc json.RawMessage, n int64, s string) json.RawMessage {
	var v any
	if json.Unmarshal(doc, &v) != nil {
		return doc
	}
	var leaves []func(string)
	var walk func(v any, set func(any))
	walk = func(v any, set func(any)) {
		switch x := v.(type) {
		case string:
			leaves = append(leaves, func(s string) { set(s) })
		case []any:
			for i := range x {
				walk(x[i], func(nv any) { x[i] = nv })
			}
		case map[string]any:
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				walk(x[k], func(nv any) { x[k] = nv })
			}
		}
	}
	walk(v, func(nv any) { v = nv })
	if len(leaves) == 0 {
		return doc
	}
	leaves[int(uint64(n)%uint64(len(leaves)))](s)
	out, err := json.Marshal(v)
	if err != nil {
		return doc
	}
	return out
}
