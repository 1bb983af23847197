package workspace

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"clio/internal/core"
	"clio/internal/expr"
	"clio/internal/paperdb"
	"clio/internal/schema"
)

// A single Tool must be safe under concurrent use: the serve layer
// shares one Tool per session across HTTP handlers, and even within a
// session readers (TargetView, OpLog, status) can overlap mutators.
// Run under -race this exercises the Tool mutex.
func TestToolConcurrentAccess(t *testing.T) {
	tl := newTool(t)
	if err := tl.Start("kids"); err != nil {
		t.Fatal(err)
	}
	if err := tl.AddCorrespondence(context.Background(),
		core.Identity("Children.ID", schema.Col("Kids", "ID"))); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				switch (w + i) % 6 {
				case 0:
					// Mutator: correspondence (idempotent target attr).
					_ = tl.AddCorrespondence(ctx,
						core.Identity("Children.name", schema.Col("Kids", "name")))
				case 1:
					_, _ = tl.TargetView(ctx)
				case 2:
					_ = tl.Walk(ctx, "Children", "Schools")
				case 3:
					_ = tl.Undo()
				case 4:
					_ = tl.OpLogString()
					_ = tl.TargetStatus()
					_, _ = tl.CoverageSummary(ctx)
				case 5:
					tl.Rotate()
					_ = tl.Workspaces()
					_ = tl.Accepted()
					tl.RankWorkspaces()
				}
			}
		}(w)
	}
	wg.Wait()

	// The tool must still be coherent: an active workspace exists and
	// the target view evaluates.
	if tl.Active() == nil {
		t.Fatal("no active workspace after concurrent use")
	}
	if _, err := tl.TargetView(context.Background()); err != nil {
		t.Fatalf("TargetView after concurrent use: %v", err)
	}
}

// Readers of the memoized target view race with the ops that replace
// or invalidate it: row edits (the instance version), target filters
// and undo (the active workspace). Every view a reader gets is read in
// full while the mutators run, and the final view equals the memo-free
// reference. Run under -race this checks the memo's synchronization
// and that nothing mutates a returned view.
func TestTargetViewMemoConcurrent(t *testing.T) {
	ctx := context.Background()
	tl := mappedTool(t, paperdb.Instance())
	const iters = 12
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				row := rowVals(fmt.Sprintf("0%d%d", 2+w, i%10), "Kid", "8", "100", "101", "d3")
				if err := tl.ApplyRows(ctx, "Children", row, false); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if err := tl.ApplyRows(ctx, "Children", row, true); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = tl.AddTargetFilter(ctx, expr.MustParse("Kids.ID IS NOT NULL"))
			_ = tl.Undo()
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*iters; i++ {
				view, err := tl.TargetView(ctx)
				if err != nil {
					t.Errorf("TargetView: %v", err)
					return
				}
				_ = viewRows(view)
			}
		}()
	}
	wg.Wait()
	got, err := tl.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceView(t, tl); !reflect.DeepEqual(viewRows(got), viewRows(want)) {
		t.Fatalf("view after concurrent use:\n%v\nreference:\n%v", viewRows(got), viewRows(want))
	}
}
