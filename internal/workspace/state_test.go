package workspace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"clio/internal/core"
	"clio/internal/paperdb"
	"clio/internal/schema"
	"clio/internal/value"
)

// sessionTool drives a tool through a correspondence, a walk, a
// confirm and a chase, so its state has workspaces with D(G)s and
// examples, an accepted mapping, undo history and an op log.
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

// A state that names one attribute twice, in a D(G) scheme or in an
// example's association scheme, is refused with an error instead of a
// panic: restore reads journal bytes, and a panic there stops a
// journaled server from booting.
func TestRestoreStateRejectsRepeatedNames(t *testing.T) {
	st, err := sessionTool(t).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	ws := st.Workspaces[0]
	if ws.DG == nil || len(ws.Illustration.Examples) == 0 || len(ws.Illustration.Examples[0].AssocScheme) < 2 {
		t.Fatal("the first workspace has no D(G) or no example to corrupt")
	}
	dg := st
	dg.Workspaces = append([]WorkspaceState(nil), st.Workspaces...)
	dg.Workspaces[0].DG = &DGState{Name: "D", Scheme: []string{"x", "x"}}

	ex := st
	ex.Workspaces = append([]WorkspaceState(nil), st.Workspaces...)
	exs := append([]ExampleState(nil), ws.Illustration.Examples...)
	names := make([]string, len(exs[0].AssocScheme))
	for i := range names {
		names[i] = "Children.ID"
	}
	exs[0].AssocScheme = names
	ex.Workspaces[0].Illustration = IllustrationState{Examples: exs}

	for name, bad := range map[string]ToolState{"dg scheme": dg, "assocScheme": ex} {
		err := newTool(t).RestoreState(bad)
		if err == nil || !strings.Contains(err.Error(), "duplicate attribute") {
			t.Errorf("%s: RestoreState error = %v, want a repeated-attribute error", name, err)
		}
	}
}

// FuzzRestoreState checks snapshot restore, which decodes journal
// bytes. No state makes RestoreState panic, and the snapshot of a tool
// restored from an accepted state restores again to an equal snapshot.
func FuzzRestoreState(f *testing.F) {
	st, err := sessionTool(f).SnapshotState()
	if err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var st ToolState
		if json.Unmarshal(data, &st) != nil {
			return
		}
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
	})
}
