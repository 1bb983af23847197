package fd

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"clio/internal/budget"
	"clio/internal/expr"
	"clio/internal/fault"
	"clio/internal/graph"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/spill"
	"clio/internal/value"
)

// spillDGCase builds a k-relation workload whose intermediate streams
// dwarf their distinct front: every (key, v) row is repeated `copies`
// times, so joins multiply duplicates (copies^k per match) while
// Distinct/RemoveSubsumed collapse the result back to a few hundred
// tuples. chain=true wires R0-R1-…; chain=false adds a closing edge,
// making the graph cyclic so the subgraph-enumeration path runs.
func spillDGCase(k, keys, copies int, chain bool) (*graph.QueryGraph, *relation.Instance) {
	sch := schema.NewDatabase()
	names := make([]string, k)
	for i := 0; i < k; i++ {
		names[i] = fmt.Sprintf("R%d", i)
		sch.MustAddRelation(schema.NewRelation(names[i],
			schema.Attribute{Name: "k", Type: value.KindInt},
			schema.Attribute{Name: "v", Type: value.KindInt},
		))
	}
	in := relation.NewInstance(sch)
	for i := 0; i < k; i++ {
		r := in.NewRelationFor(names[i])
		for key := 0; key < keys; key++ {
			for v := 0; v < 2; v++ {
				for c := 0; c < copies; c++ {
					r.AddValues(value.Int(int64(key)), value.Int(int64(v)))
				}
			}
		}
		in.MustAdd(r)
	}
	g := graph.New()
	for i := 0; i < k; i++ {
		g.MustAddNode(names[i], names[i])
	}
	for i := 1; i < k; i++ {
		g.MustAddEdge(names[i-1], names[i], expr.Equals(names[i-1]+".k", names[i]+".k"))
	}
	if !chain {
		g.MustAddEdge(names[0], names[k-1], expr.Equals(names[0]+".k", names[k-1]+".k"))
	}
	return g, in
}

// requireSameDG asserts byte-identical canonical order (Compute sorts
// by canonical key, so equality must hold position by position).
func requireSameDG(t *testing.T, got, want *relation.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("spilled D(G) has %d tuples, unlimited has %d", got.Len(), want.Len())
	}
	gt, wt := got.Tuples(), want.Tuples()
	for i := range gt {
		if gt[i].Key() != wt[i].Key() {
			t.Fatalf("tuple %d differs:\nspilled   %v\nunlimited %v", i, gt[i], wt[i])
		}
	}
}

// spillDGDifferential runs the case unlimited (measuring cumulative
// materialization) and then under a spill-enabled resident cap,
// asserting the pressure was real (cumulative >= 4x the cap, spill
// engaged) and the results byte-identical.
func spillDGDifferential(t *testing.T, g *graph.QueryGraph, in *relation.Instance, cap int64) {
	t.Helper()
	refCtx := WithBudget(context.Background(), Budget{MaxBytes: 1 << 40})
	want, err := Compute(refCtx, g, in)
	if err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
	_, cumulative := BudgetUsed(refCtx)
	if cumulative < 4*cap {
		t.Fatalf("workload too small: cumulative bytes %d < 4x cap %d — the spill path is not under pressure", cumulative, cap)
	}

	tr := budget.NewTracker(budget.Budget{MaxBytes: cap, SpillDir: t.TempDir()})
	got, err := Compute(budget.With(context.Background(), tr), g, in)
	if err != nil {
		t.Fatalf("spilled run: %v", err)
	}
	if tr.SpillWritten() == 0 {
		t.Fatal("run under pressure never spilled — the test is vacuous")
	}
	if tr.Rows() != 0 && int64(got.Len()) != tr.Rows() {
		t.Fatalf("post-run resident rows %d, want 0 or the charged front %d", tr.Rows(), got.Len())
	}
	if tr.SpillBytes() != 0 {
		t.Fatalf("spill bytes still resident after completion: %d", tr.SpillBytes())
	}
	requireSameDG(t, got, want)
}

// The acceptance workload: a chain-join D(G) whose intermediate state
// is well over 4x MaxBytes must complete via spill (outer-join path,
// grace-hash joins plus the spilling D(G) sink) byte-identical to the
// unlimited in-memory run.
func TestBudgetSpillChainDGByteIdentical(t *testing.T) {
	g, in := spillDGCase(3, 8, 6, true)
	spillDGDifferential(t, g, in, 131072)
}

// The same guarantee on a cyclic graph, where Compute routes to
// subgraph enumeration and the dgAccum spill sink dedups partition by
// partition before global subsumption.
func TestBudgetSpillCyclicDGByteIdentical(t *testing.T) {
	g, in := spillDGCase(3, 8, 6, false)
	spillDGDifferential(t, g, in, 131072)
}

// A panic at any spill fault point of a D(G) computation — while a
// join side or the accumulator sinks, while a partition loads or
// replays, while an oversized partition splits — must leave nothing
// behind once it has unwound: no rows, bytes or spill bytes charged and
// no partition file. Once the point is spent, the same computation
// must give the unfaulted outcome exactly. The grid runs the chain
// (outer-join) and cyclic (subgraph) paths at three caps, each point
// firing at four depths into the run; a point the run never reaches
// must leave the run unfaulted.
func TestChaosSpillPanicLeavesNoResidue(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	type outcome struct {
		d     *relation.Relation
		err   error
		panic any
	}
	run := func(g *graph.QueryGraph, in *relation.Instance, tr *budget.Tracker) (o outcome) {
		defer func() { o.panic = recover() }()
		o.d, o.err = computeUncached(budget.With(context.Background(), tr), g, in)
		return o
	}
	sameOutcome := func(t *testing.T, got, want outcome) {
		t.Helper()
		if got.panic != nil || fmt.Sprint(got.err) != fmt.Sprint(want.err) {
			t.Fatalf("outcome: panic %v, err %v; want err %v", got.panic, got.err, want.err)
		}
		if want.err == nil {
			requireSameDG(t, got.d, want.d)
		}
	}
	// noResidue checks what a finished run leaves: nothing, or after a
	// success the one charge of the returned front.
	noResidue := func(t *testing.T, tr *budget.Tracker, dir string, o outcome) {
		t.Helper()
		var rows int64
		if o.panic == nil && o.err == nil && tr.Rows() != 0 {
			rows = int64(o.d.Len())
		}
		if tr.Rows() != rows || (rows == 0 && tr.Bytes() != 0) || tr.SpillBytes() != 0 {
			t.Fatalf("residue: rows=%d bytes=%d spill=%d", tr.Rows(), tr.Bytes(), tr.SpillBytes())
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part")); len(left) != 0 {
			t.Fatalf("residue: %d partition files: %v", len(left), left)
		}
	}
	points := []string{"spill.create", "spill.write", "spill.flush", "spill.read", "spill.repartition"}
	fired := map[string]int{}
	for _, chain := range []bool{true, false} {
		g, in := spillDGCase(3, 8, 6, chain)
		shape := map[bool]string{true: "chain", false: "cyclic"}[chain]
		for _, cap := range []int64{128 << 10, 48 << 10, 16 << 10} {
			spilled := func(dir string) *budget.Tracker {
				return budget.NewTracker(budget.Budget{MaxBytes: cap, SpillDir: dir})
			}
			want := run(g, in, spilled(t.TempDir()))
			if want.panic != nil {
				t.Fatalf("%s at %d KiB: unfaulted run panicked: %v", shape, cap>>10, want.panic)
			}
			for _, point := range points {
				for _, after := range []int{0, 3, 40, 400} {
					t.Run(fmt.Sprintf("%s/%dKiB/%s/after%d", shape, cap>>10, point, after), func(t *testing.T) {
						fault.Set(point, fault.Spec{Mode: fault.ModePanic, After: after, Times: 1})
						defer fault.Clear(point)
						dir := t.TempDir()
						tr := spilled(dir)
						got := run(g, in, tr)
						if fault.Fired(point) == 0 {
							sameOutcome(t, got, want)
							noResidue(t, tr, dir, got)
							return
						}
						fired[point]++
						if _, ok := got.panic.(*fault.Panic); !ok {
							t.Fatalf("recovered %v (err %v), want the injected panic", got.panic, got.err)
						}
						noResidue(t, tr, dir, got)
						// The point is spent: the retry is the unfaulted run.
						tr = spilled(dir)
						retry := run(g, in, tr)
						sameOutcome(t, retry, want)
						noResidue(t, tr, dir, retry)
					})
				}
			}
		}
	}
	for _, point := range points {
		if fired[point] == 0 {
			t.Errorf("%s never fired — its cases are vacuous", point)
		}
	}
}

// A spill-file fault mid-computation must degrade to a typed abort —
// matching spill.ErrSpill — with no memo-cache entry, and the next
// clean computation over the same graph must be exact.
func TestChaosSpillComputeFaultLeavesCacheClean(t *testing.T) {
	prev := SetCacheCapacity(8)
	defer func() { SetCacheCapacity(prev); InvalidateCache() }()
	InvalidateCache()
	fault.Enable(1)
	defer fault.Disable()

	g, in := spillDGCase(3, 8, 6, true)
	want, err := Compute(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	InvalidateCache()

	for _, point := range []string{"spill.write", "spill.read"} {
		t.Run(point, func(t *testing.T) {
			fault.Set(point, fault.Spec{Mode: fault.ModeError, After: 40, Times: 1})
			dir := t.TempDir()
			tr := budget.NewTracker(budget.Budget{MaxBytes: 131072, SpillDir: dir})
			_, err := Compute(budget.With(context.Background(), tr), g, in)
			if !errors.Is(err, spill.ErrSpill) || !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("faulted compute returned %v, want spill.ErrSpill via fault.ErrInjected", err)
			}
			key, ok := cacheKey(g, in)
			if !ok {
				t.Fatal("no cache key for the test graph")
			}
			if cachePeek(key) {
				t.Fatal("aborted spill computation left a memo-cache entry")
			}
			if tr.Rows() != 0 || tr.Bytes() != 0 || tr.SpillBytes() != 0 {
				t.Fatalf("abort leaked charges: rows=%d bytes=%d spill=%d", tr.Rows(), tr.Bytes(), tr.SpillBytes())
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part")); len(left) != 0 {
				t.Fatalf("abort left spill files: %v", left)
			}
			// The fault point is exhausted: the same budget must now
			// succeed, and exactly.
			got, err := Compute(budget.With(context.Background(), budget.NewTracker(budget.Budget{MaxBytes: 131072, SpillDir: dir})), g, in)
			if err != nil {
				t.Fatalf("recovery compute: %v", err)
			}
			requireSameDG(t, got, want)
			InvalidateCache()
		})
	}
}

// Disk-full during spill — the MaxSpillBytes cap — must abort with the
// typed budget error naming the spill limit and disk_cap_exceeded,
// never a partial result, and must leave the memo cache clean.
func TestBudgetSpillDiskFullTypedAbort(t *testing.T) {
	prev := SetCacheCapacity(8)
	defer func() { SetCacheCapacity(prev); InvalidateCache() }()
	InvalidateCache()

	g, in := spillDGCase(3, 8, 6, true)
	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 131072, SpillDir: dir, MaxSpillBytes: 4096})
	_, err := Compute(budget.With(context.Background(), tr), g, in)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("disk-full compute returned %v, want *BudgetError", err)
	}
	if be.Limit != "spill" || be.Spill != SpillDiskCap {
		t.Fatalf("disk-full error = %+v, want limit spill, state %q", be, SpillDiskCap)
	}
	if key, ok := cacheKey(g, in); ok && cachePeek(key) {
		t.Fatal("disk-full abort left a memo-cache entry")
	}
	if tr.SpillBytes() != 0 {
		t.Fatalf("disk-full abort left %d spill bytes resident", tr.SpillBytes())
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part")); len(left) != 0 {
		t.Fatalf("disk-full abort left spill files: %v", left)
	}
}

// The spill-v2 acceptance workload on the D(G) side: a chain-4 graph
// whose cumulative materialization is >= 8x the resident cap must
// complete byte-identical to the unlimited run, with partition
// statistics recorded for EXPLAIN.
func TestBudgetSpillChain4DGByteIdentical(t *testing.T) {
	g, in := spillDGCase(4, 8, 3, true)
	const cap = 131072
	refCtx := WithBudget(context.Background(), Budget{MaxBytes: 1 << 40})
	want, err := Compute(refCtx, g, in)
	if err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
	_, cumulative := BudgetUsed(refCtx)
	if cumulative < 8*cap {
		t.Fatalf("workload too small: cumulative bytes %d < 8x cap %d", cumulative, cap)
	}
	tr := budget.NewTracker(budget.Budget{MaxBytes: cap, SpillDir: t.TempDir()})
	got, err := Compute(budget.With(context.Background(), tr), g, in)
	if err != nil {
		t.Fatalf("spilled run: %v", err)
	}
	if tr.SpillWritten() == 0 {
		t.Fatal("run under pressure never spilled — the test is vacuous")
	}
	if n, _ := tr.PartitionStats(); n == 0 {
		t.Fatal("no partition statistics recorded for EXPLAIN")
	}
	if tr.SpillBytes() != 0 {
		t.Fatalf("spill bytes still resident after completion: %d", tr.SpillBytes())
	}
	requireSameDG(t, got, want)
}

// subsumptionStream builds the satellite-2 acceptance stream: for each
// of n keys, six one-column partial tuples followed (in stream order)
// by one complete tuple that subsumes all six. The distinct multiset
// is ~7x the final front.
func subsumptionStream(n int) (*relation.Scheme, []relation.Tuple, int) {
	s := relation.NewScheme("G.k", "G.c1", "G.c2", "G.c3", "G.c4", "G.c5", "G.c6")
	var out []relation.Tuple
	for key := 0; key < n; key++ {
		k := value.Int(int64(key))
		full := make([]value.Value, 7)
		full[0] = k
		for c := 0; c < 6; c++ {
			vals := []value.Value{k, value.Null, value.Null, value.Null, value.Null, value.Null, value.Null}
			vals[c+1] = value.Int(int64(key*10 + c))
			full[c+1] = vals[c+1]
			out = append(out, relation.NewTuple(s, vals...))
		}
		out = append(out, relation.NewTuple(s, full...))
	}
	return s, out, n
}

// Satellite 2: a stream whose distinct multiset is ~4x the budget but
// whose subsumption front fits must finalize — which requires the
// accumulator to refund tuples the SubsumeSet evicts when a
// later-arriving subsuming tuple displaces them. Against the pre-fix
// code (evicted entries stay charged) this aborts on the bytes limit.
func TestBudgetSpillSubsumedFrontRefundsEvictions(t *testing.T) {
	s, stream, keys := subsumptionStream(60)
	var total, front int64
	for _, u := range stream {
		total += u.ApproxBytes()
	}
	for i := 6; i < len(stream); i += 7 {
		front += stream[i].ApproxBytes()
	}
	const cap = 32768
	if total < 4*cap {
		t.Fatalf("distinct multiset %d bytes < 4x cap %d — the test is vacuous", total, cap)
	}
	if front >= cap {
		t.Fatalf("front %d does not fit the cap %d — the workload is unsatisfiable", front, cap)
	}

	// Reference: the unlimited in-memory sink.
	refTr := budget.NewTracker(budget.Budget{MaxBytes: 1 << 40})
	ref := newDGSink(context.Background(), refTr, s)
	for _, u := range stream {
		if err := addTuple(ref, u); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.finalize()
	if err != nil {
		t.Fatal(err)
	}

	tr := budget.NewTracker(budget.Budget{MaxBytes: cap, SpillDir: t.TempDir()})
	sink := newDGSink(context.Background(), tr, s)
	for _, u := range stream {
		if err := addTuple(sink, u); err != nil {
			t.Fatalf("add under pressure: %v", err)
		}
	}
	got, err := sink.finalize()
	if err != nil {
		t.Fatalf("finalize under pressure: %v (the front fits — an abort means evicted tuples stayed charged)", err)
	}
	if tr.SpillWritten() == 0 {
		t.Fatal("sink never spilled — the test is vacuous")
	}
	if got.Len() != keys {
		t.Fatalf("front has %d tuples, want %d (one complete tuple per key)", got.Len(), keys)
	}
	// The sinks return unsorted fronts (Compute sorts downstream).
	got.SortByKey()
	want.SortByKey()
	requireSameDG(t, got, want)
	if tr.Rows() != int64(keys) {
		t.Fatalf("post-finalize resident rows %d, want the front's %d", tr.Rows(), keys)
	}
	if tr.SpillBytes() != 0 {
		t.Fatalf("spill bytes resident after finalize: %d", tr.SpillBytes())
	}
}

// addTuple feeds one tuple to a sink as a one-row batch.
func addTuple(sink dgSink, u relation.Tuple) error {
	b := relation.NewBatch(u.Scheme())
	b.AppendTuple(u)
	return sink.addBatch(b)
}

// With recursion disabled, a D(G) replay the budget refuses keeps the
// plain "enabled" spill state; with the default depth available the
// sink either completes or names recursion_exhausted — never a bare
// enabled refusal after recursion actually ran. This pins the serial
// path's escalation labels.
func TestBudgetSpillDGRecursionOffKeepsEnabledState(t *testing.T) {
	s, stream, _ := subsumptionStream(60)
	// A cap the front itself overflows: finalize must abort whatever
	// the recursion depth, but the state depends on whether recursion
	// was available.
	for _, tc := range []struct {
		name      string
		depth     int
		wantState string
	}{
		{"recursion off", -1, budget.SpillEnabled},
		{"recursion default", 0, budget.SpillRecursionExhausted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := budget.NewTracker(budget.Budget{MaxBytes: 4096, SpillDir: t.TempDir(), SpillRecursionDepth: tc.depth})
			sink := newDGSink(context.Background(), tr, s)
			var err error
			for _, u := range stream {
				if err = addTuple(sink, u); err != nil {
					break
				}
			}
			if err == nil {
				_, err = sink.finalize()
			}
			var be *budget.Error
			if !errors.As(err, &be) {
				t.Fatalf("over-front sink returned %v, want *budget.Error", err)
			}
			if be.Spill != tc.wantState {
				t.Fatalf("spill state = %q, want %q", be.Spill, tc.wantState)
			}
			sink.abort()
			if tr.Rows() != 0 || tr.Bytes() != 0 || tr.SpillBytes() != 0 {
				t.Fatalf("abort leaked charges: rows=%d bytes=%d spill=%d", tr.Rows(), tr.Bytes(), tr.SpillBytes())
			}
		})
	}
}
