package algebra

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"clio/internal/budget"
	"clio/internal/expr"
	"clio/internal/fault"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/spill"
	"clio/internal/value"
)

// spillJoinInstance builds L and R with heavy key collisions, null
// join keys on both sides, and cross-kind numeric keys (L.k parses as
// int, some R.k as float), so the differential test covers exactly the
// cases where partition routing could diverge from tuple equality.
func spillJoinInstance(t *testing.T, rows int) (*relation.Instance, *relation.Relation, *relation.Relation) {
	t.Helper()
	sch := schema.NewDatabase()
	sch.MustAddRelation(schema.NewRelation("L",
		schema.Attribute{Name: "k", Type: value.KindInt},
		schema.Attribute{Name: "x", Type: value.KindInt},
	))
	sch.MustAddRelation(schema.NewRelation("R",
		schema.Attribute{Name: "k", Type: value.KindFloat},
		schema.Attribute{Name: "y", Type: value.KindInt},
	))
	in := relation.NewInstance(sch)
	l := in.NewRelationFor("L")
	for i := 0; i < rows; i++ {
		k := fmt.Sprintf("%d", i%97)
		if i%11 == 0 {
			k = "-" // null join key
		}
		l.AddRow(k, fmt.Sprintf("%d", i))
	}
	in.MustAdd(l)
	r := in.NewRelationFor("R")
	for i := 0; i < rows; i++ {
		k := fmt.Sprintf("%d.0", i%89) // float kind: must still meet int keys
		if i%13 == 0 {
			k = "-"
		}
		r.AddRow(k, fmt.Sprintf("%d", i))
	}
	in.MustAdd(r)
	return in, l, r
}

// spillCtx returns a context whose budget forces the join's build
// sides to disk, and the tracker for post-hoc assertions.
func spillCtx(t *testing.T, maxBytes int64) (context.Context, *budget.Tracker) {
	t.Helper()
	tr := budget.NewTracker(budget.Budget{MaxBytes: maxBytes, SpillDir: t.TempDir()})
	return budget.With(context.Background(), tr), tr
}

// requireSameRelation asserts byte-identical canonical order.
func requireSameRelation(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	got.SortByKey()
	want.SortByKey()
	if got.Len() != want.Len() {
		t.Fatalf("%s: got %d tuples, want %d", label, got.Len(), want.Len())
	}
	gt, wt := got.Tuples(), want.Tuples()
	for i := range gt {
		if gt[i].Key() != wt[i].Key() {
			t.Fatalf("%s: tuple %d differs:\n got %v\nwant %v", label, i, gt[i], wt[i])
		}
	}
}

// The differential property at the heart of the spill design: a join
// forced through Grace-hash partitions must be byte-identical (in
// canonical order) to the unlimited in-memory join, for every join
// kind, with null keys, cross-kind numeric keys, and a residual
// predicate in play. Select(TRUE) wrappers make the inputs derived
// (base relations are pinned instance state and never spill).
func TestBudgetSpillJoinDifferentialAllKinds(t *testing.T) {
	in, l, r := spillJoinInstance(t, 900)
	preds := map[string]expr.Expr{
		"equi":          expr.MustParse("L.k = R.k"),
		"equi+residual": expr.MustParse("L.k = R.k AND L.x < R.y"),
	}
	for pname, pred := range preds {
		for _, kind := range []JoinKind{InnerJoin, LeftJoin, RightJoin, FullJoin} {
			label := fmt.Sprintf("%v/%s", kind, pname)
			want := JoinRelations(kind, l, r, pred)
			// Each side is ~86KB approximate; 48KB forces both to disk
			// while leaving room for one loaded partition pair (the
			// null-key partition is the heaviest) plus an output batch
			// resident at a time.
			ctx, tr := spillCtx(t, 49152)
			j := Join{Kind: kind, On: pred,
				L: Select{Child: NewScan("L", ""), Pred: expr.MustParse("TRUE")},
				R: Select{Child: NewScan("R", ""), Pred: expr.MustParse("TRUE")},
			}
			it, err := Open(ctx, j, in)
			if err != nil {
				t.Fatalf("%s: open: %v", label, err)
			}
			got, err := Drain(it)
			if err != nil {
				t.Fatalf("%s: drain: %v", label, err)
			}
			if tr.SpillParts() == 0 || tr.SpillWritten() == 0 {
				t.Fatalf("%s: join never spilled (parts=%d written=%d) — the test is vacuous", label, tr.SpillParts(), tr.SpillWritten())
			}
			requireSameRelation(t, label, got, want)
			if tr.Rows() != 0 || tr.SpillBytes() != 0 {
				t.Fatalf("%s: resident charges leaked: rows=%d spill=%d", label, tr.Rows(), tr.SpillBytes())
			}
		}
	}
}

// A join with no equi conjunct cannot be hash-partitioned: an
// over-budget build side must abort with the typed budget error whose
// spill state says "enabled" (spill was configured but inapplicable).
func TestBudgetSpillNonEquiJoinTypedAbort(t *testing.T) {
	in, _, _ := spillJoinInstance(t, 400)
	ctx, tr := spillCtx(t, 512)
	j := Join{Kind: InnerJoin, On: expr.MustParse("L.x < R.y"),
		L: Select{Child: NewScan("L", ""), Pred: expr.MustParse("TRUE")},
		R: Select{Child: NewScan("R", ""), Pred: expr.MustParse("TRUE")},
	}
	it, err := Open(ctx, j, in)
	if err == nil {
		_, err = Drain(it)
	}
	var be *budget.Error
	if !errors.As(err, &be) {
		t.Fatalf("non-equi over-budget join returned %v, want *budget.Error", err)
	}
	if be.Spill != budget.SpillEnabled {
		t.Fatalf("spill state = %q, want %q", be.Spill, budget.SpillEnabled)
	}
	if tr.Rows() != 0 || tr.Bytes() != 0 || tr.SpillBytes() != 0 {
		t.Fatalf("abort leaked charges: rows=%d bytes=%d spill=%d", tr.Rows(), tr.Bytes(), tr.SpillBytes())
	}
}

// A write fault mid-spill must surface as the typed spill error from
// the join, refund every resident charge, and leave no partition files
// behind.
func TestChaosSpillJoinWriteFaultTypedAbort(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	fault.Set("spill.write", fault.Spec{Mode: fault.ModeError, After: 5, Times: 1})

	in, _, _ := spillJoinInstance(t, 400)
	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 4096, SpillDir: dir})
	ctx := budget.With(context.Background(), tr)
	j := Join{Kind: FullJoin, On: expr.MustParse("L.k = R.k"),
		L: Select{Child: NewScan("L", ""), Pred: expr.MustParse("TRUE")},
		R: Select{Child: NewScan("R", ""), Pred: expr.MustParse("TRUE")},
	}
	it, err := Open(ctx, j, in)
	if err == nil {
		_, err = Drain(it)
	}
	if !errors.Is(err, spill.ErrSpill) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("faulted spill join returned %v, want spill.ErrSpill via fault.ErrInjected", err)
	}
	if tr.Rows() != 0 || tr.Bytes() != 0 || tr.SpillBytes() != 0 {
		t.Fatalf("faulted join leaked charges: rows=%d bytes=%d spill=%d", tr.Rows(), tr.Bytes(), tr.SpillBytes())
	}
	left, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part"))
	if len(left) != 0 {
		t.Fatalf("faulted join left partition files: %v", left)
	}
}

// A read fault during partition replay must also degrade to the typed
// error with everything refunded — the consumer closed the iterator,
// so the sides' files are gone too.
func TestChaosSpillJoinReadFaultTypedAbort(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()

	in, _, _ := spillJoinInstance(t, 400)
	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 4096, SpillDir: dir})
	ctx := budget.With(context.Background(), tr)
	j := Join{Kind: InnerJoin, On: expr.MustParse("L.k = R.k"),
		L: Select{Child: NewScan("L", ""), Pred: expr.MustParse("TRUE")},
		R: Select{Child: NewScan("R", ""), Pred: expr.MustParse("TRUE")},
	}
	it, err := Open(ctx, j, in)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fault.Set("spill.read", fault.Spec{Mode: fault.ModeError, After: 10, Times: 1})
	_, err = Drain(it)
	if !errors.Is(err, spill.ErrSpill) {
		t.Fatalf("read-faulted join returned %v, want spill.ErrSpill", err)
	}
	if tr.Rows() != 0 || tr.Bytes() != 0 || tr.SpillBytes() != 0 {
		t.Fatalf("read fault leaked charges: rows=%d bytes=%d spill=%d", tr.Rows(), tr.Bytes(), tr.SpillBytes())
	}
	left, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part"))
	if len(left) != 0 {
		t.Fatalf("read-faulted join left partition files: %v", left)
	}
}

// skewJoinInstance builds L and R with a Zipf-like key distribution:
// one hot key carrying ~1/64 of each side's mass plus a long tail of
// ~1500 distinct keys. At ~9x the resident cap with fan-out 16 the
// average partition pair exceeds the cap, so first-level partitions
// do not fit and recursive re-partitioning is structural, while the
// hot key's own mass (which no salt can split) stays small enough
// that its pair plus one output batch of its cross product fits.
func skewJoinInstance(t *testing.T, rows int) (*relation.Instance, *relation.Relation, *relation.Relation) {
	t.Helper()
	sch := schema.NewDatabase()
	sch.MustAddRelation(schema.NewRelation("L",
		schema.Attribute{Name: "k", Type: value.KindInt},
		schema.Attribute{Name: "x", Type: value.KindInt},
	))
	sch.MustAddRelation(schema.NewRelation("R",
		schema.Attribute{Name: "k", Type: value.KindFloat},
		schema.Attribute{Name: "y", Type: value.KindInt},
	))
	in := relation.NewInstance(sch)
	l := in.NewRelationFor("L")
	for i := 0; i < rows; i++ {
		k := fmt.Sprintf("%d", i%1499+1)
		if i%64 == 0 {
			k = "0" // the hot key
		}
		l.AddRow(k, fmt.Sprintf("%d", i))
	}
	in.MustAdd(l)
	r := in.NewRelationFor("R")
	for i := 0; i < rows; i++ {
		k := fmt.Sprintf("%d.0", i%1499+1)
		if i%64 == 0 {
			k = "0.0"
		}
		r.AddRow(k, fmt.Sprintf("%d", i))
	}
	in.MustAdd(r)
	return in, l, r
}

// The spill-v2 differential property: a Zipf-skewed join at ~8x the
// resident cap — which recursion-less spill cannot complete — must,
// with recursive re-partitioning in play, be byte-identical to the
// unlimited in-memory join, refund every charge, and actually exercise
// the recursion (recursions > 0).
func TestBudgetSpillJoinSkewRecursionDifferential(t *testing.T) {
	in, l, r := skewJoinInstance(t, 6144)
	pred := expr.MustParse("L.k = R.k")
	for _, kind := range []JoinKind{InnerJoin, FullJoin} {
		label := fmt.Sprintf("%v/skew", kind)
		want := JoinRelations(kind, l, r, pred)
		// Each side is ~580KB approximate: ~9x the 64KB cap.
		ctx, tr := spillCtx(t, 65536)
		j := Join{Kind: kind, On: pred,
			L: Select{Child: NewScan("L", ""), Pred: expr.MustParse("TRUE")},
			R: Select{Child: NewScan("R", ""), Pred: expr.MustParse("TRUE")},
		}
		it, err := Open(ctx, j, in)
		if err != nil {
			t.Fatalf("%s: open: %v", label, err)
		}
		got, err := Drain(it)
		if err != nil {
			t.Fatalf("%s: drain: %v", label, err)
		}
		if tr.SpillParts() == 0 {
			t.Fatalf("%s: join never spilled — the test is vacuous", label)
		}
		if tr.SpillRecursions() == 0 {
			t.Fatalf("%s: no recursive re-partitioning at 8x the cap — the test is vacuous", label)
		}
		if tr.SpillDepth() < 1 {
			t.Fatalf("%s: SpillDepth = %d, want >= 1", label, tr.SpillDepth())
		}
		if n, _ := tr.PartitionStats(); n == 0 {
			t.Fatalf("%s: no partition statistics recorded", label)
		}
		if tr.PartitionSkew() < 1 {
			t.Fatalf("%s: partition skew %f < 1 is impossible", label, tr.PartitionSkew())
		}
		requireSameRelation(t, label, got, want)
		if tr.Rows() != 0 || tr.SpillBytes() != 0 {
			t.Fatalf("%s: resident charges leaked: rows=%d spill=%d", label, tr.Rows(), tr.SpillBytes())
		}
	}
}

// The same skewed workload with recursion disabled must degrade to the
// PR 8 behavior: a typed abort whose spill state is plain "enabled"
// (the remedy is -spill-recursion-depth, and the envelope must not
// claim recursion was exhausted when it never ran).
func TestBudgetSpillJoinSkewRecursionOffAborts(t *testing.T) {
	in, _, _ := skewJoinInstance(t, 6144)
	tr := budget.NewTracker(budget.Budget{MaxBytes: 65536, SpillDir: t.TempDir(), SpillRecursionDepth: -1})
	ctx := budget.With(context.Background(), tr)
	j := Join{Kind: InnerJoin, On: expr.MustParse("L.k = R.k"),
		L: Select{Child: NewScan("L", ""), Pred: expr.MustParse("TRUE")},
		R: Select{Child: NewScan("R", ""), Pred: expr.MustParse("TRUE")},
	}
	it, err := Open(ctx, j, in)
	if err == nil {
		_, err = Drain(it)
	}
	var be *budget.Error
	if !errors.As(err, &be) {
		t.Fatalf("recursion-off skewed join returned %v, want *budget.Error", err)
	}
	if be.Spill != budget.SpillEnabled {
		t.Fatalf("spill state = %q, want %q", be.Spill, budget.SpillEnabled)
	}
	if tr.SpillRecursions() != 0 {
		t.Fatalf("recursion ran %d times with depth disabled", tr.SpillRecursions())
	}
	if tr.Rows() != 0 || tr.Bytes() != 0 || tr.SpillBytes() != 0 {
		t.Fatalf("abort leaked charges: rows=%d bytes=%d spill=%d", tr.Rows(), tr.Bytes(), tr.SpillBytes())
	}
}

// A single key whose tuples alone exceed the cap cannot be split by
// any number of re-partitionings: recursion must give up at the depth
// limit with the typed "recursion_exhausted" state, everything
// refunded, no files left.
func TestBudgetSpillJoinHotKeyRecursionExhausted(t *testing.T) {
	sch := schema.NewDatabase()
	sch.MustAddRelation(schema.NewRelation("L",
		schema.Attribute{Name: "k", Type: value.KindInt},
		schema.Attribute{Name: "x", Type: value.KindInt},
	))
	sch.MustAddRelation(schema.NewRelation("R",
		schema.Attribute{Name: "k", Type: value.KindInt},
		schema.Attribute{Name: "y", Type: value.KindInt},
	))
	in := relation.NewInstance(sch)
	l := in.NewRelationFor("L")
	r := in.NewRelationFor("R")
	for i := 0; i < 600; i++ {
		l.AddRow("7", fmt.Sprintf("%d", i)) // every tuple shares one key
		r.AddRow("7", fmt.Sprintf("%d", i))
	}
	in.MustAdd(l)
	in.MustAdd(r)
	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 4096, SpillDir: dir})
	ctx := budget.With(context.Background(), tr)
	j := Join{Kind: InnerJoin, On: expr.MustParse("L.k = R.k"),
		L: Select{Child: NewScan("L", ""), Pred: expr.MustParse("TRUE")},
		R: Select{Child: NewScan("R", ""), Pred: expr.MustParse("TRUE")},
	}
	it, err := Open(ctx, j, in)
	if err == nil {
		_, err = Drain(it)
	}
	var be *budget.Error
	if !errors.As(err, &be) {
		t.Fatalf("hot-key join returned %v, want *budget.Error", err)
	}
	if be.Spill != budget.SpillRecursionExhausted {
		t.Fatalf("spill state = %q, want %q", be.Spill, budget.SpillRecursionExhausted)
	}
	if tr.Rows() != 0 || tr.Bytes() != 0 || tr.SpillBytes() != 0 {
		t.Fatalf("abort leaked charges: rows=%d bytes=%d spill=%d", tr.Rows(), tr.Bytes(), tr.SpillBytes())
	}
	left, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part"))
	if len(left) != 0 {
		t.Fatalf("exhausted recursion left partition files: %v", left)
	}
}

// A hot-key pair so large that even a perfectly even split at every
// allowed recursion level could not bring it under the cap is still
// replayed: the join re-partitions it down to the depth limit, each
// load is refused, and the abort names recursion_exhausted with every
// charge refunded and every partition file removed.
func TestBudgetSpillJoinHotKeyPastEveryDepthExhausted(t *testing.T) {
	const cap, depth, rows = 4096, 1, 4000
	sch := schema.NewDatabase()
	sch.MustAddRelation(schema.NewRelation("L",
		schema.Attribute{Name: "k", Type: value.KindInt},
		schema.Attribute{Name: "x", Type: value.KindInt},
	))
	sch.MustAddRelation(schema.NewRelation("R",
		schema.Attribute{Name: "k", Type: value.KindInt},
		schema.Attribute{Name: "y", Type: value.KindInt},
	))
	in := relation.NewInstance(sch)
	l := in.NewRelationFor("L")
	r := in.NewRelationFor("R")
	for i := 0; i < rows; i++ {
		l.AddRow("7", fmt.Sprintf("%d", i))
		r.AddRow("7", fmt.Sprintf("%d", i))
	}
	in.MustAdd(l)
	in.MustAdd(r)
	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: cap, SpillDir: dir, SpillRecursionDepth: depth})
	ctx := budget.With(context.Background(), tr)
	j := Join{Kind: InnerJoin, On: expr.MustParse("L.k = R.k"),
		L: Select{Child: NewScan("L", ""), Pred: expr.MustParse("TRUE")},
		R: Select{Child: NewScan("R", ""), Pred: expr.MustParse("TRUE")},
	}
	it, err := Open(ctx, j, in)
	if err == nil {
		_, err = Drain(it)
	}
	var be *budget.Error
	if !errors.As(err, &be) || be.Spill != budget.SpillRecursionExhausted {
		t.Fatalf("hot-key join returned %v, want a recursion_exhausted budget error", err)
	}
	// Every row of a side lands in one partition, so the largest
	// recorded partition is a whole side and the pair is twice it.
	if _, side := tr.PartitionStats(); 2*side <= cap*spill.DefaultPartitions {
		t.Fatalf("pair of %d frame bytes fits cap×%d^depth = %d — the test is vacuous",
			2*side, spill.DefaultPartitions, cap*spill.DefaultPartitions)
	}
	if tr.SpillDepth() != depth {
		t.Fatalf("re-partitioned to depth %d, want the limit %d", tr.SpillDepth(), depth)
	}
	if tr.Rows() != 0 || tr.Bytes() != 0 || tr.SpillBytes() != 0 {
		t.Fatalf("abort leaked charges: rows=%d bytes=%d spill=%d", tr.Rows(), tr.Bytes(), tr.SpillBytes())
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part")); len(left) != 0 {
		t.Fatalf("exhausted recursion left partition files: %v", left)
	}
}

// A panic at any spill fault point of a Grace join — while a side
// sinks, while a partition pair loads, while an oversized pair splits —
// must leave no charge and no partition file once it has unwound
// through Drain, and once the point is spent the same join must give
// the unlimited join's answer. The skewed case recurses, so the
// re-partitioning points fire too; a point a run never reaches must
// leave the run unfaulted.
func TestChaosSpillJoinPanicLeavesNoResidue(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	pred := expr.MustParse("L.k = R.k")
	type outcome struct {
		rel   *relation.Relation
		err   error
		panic any
	}
	run := func(kind JoinKind, in *relation.Instance, tr *budget.Tracker) (o outcome) {
		defer func() { o.panic = recover() }()
		j := Join{Kind: kind, On: pred,
			L: Select{Child: NewScan("L", ""), Pred: expr.MustParse("TRUE")},
			R: Select{Child: NewScan("R", ""), Pred: expr.MustParse("TRUE")},
		}
		it, err := Open(budget.With(context.Background(), tr), j, in)
		if err != nil {
			o.err = err
			return o
		}
		o.rel, o.err = Drain(it)
		return o
	}
	noResidue := func(t *testing.T, tr *budget.Tracker, dir string) {
		t.Helper()
		if tr.Rows() != 0 || tr.Bytes() != 0 || tr.SpillBytes() != 0 {
			t.Fatalf("residue: rows=%d bytes=%d spill=%d", tr.Rows(), tr.Bytes(), tr.SpillBytes())
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part")); len(left) != 0 {
			t.Fatalf("residue: %d partition files: %v", len(left), left)
		}
	}
	// At 1536 rows a side and a 32 KiB cap, a few first-level pairs
	// exceed the cap and recurse once.
	skewIn, skewL, skewR := skewJoinInstance(t, 1536)
	plainIn, plainL, plainR := spillJoinInstance(t, 900)
	cases := []struct {
		name string
		kind JoinKind
		in   *relation.Instance
		l, r *relation.Relation
		cap  int64
	}{
		{"plain", FullJoin, plainIn, plainL, plainR, 49152},
		{"skew", InnerJoin, skewIn, skewL, skewR, 32768},
	}
	points := []string{"spill.create", "spill.write", "spill.flush", "spill.read", "spill.repartition"}
	// The plain case's left side writes 900 frames, so a write fault
	// after 1000 strikes while the right side sinks.
	afters := []int{0, 3, 40, 400, 1000}
	fired := map[string]int{}
	for _, c := range cases {
		want := JoinRelations(c.kind, c.l, c.r, pred)
		exact := func(t *testing.T, o outcome) {
			t.Helper()
			if o.panic != nil || o.err != nil {
				t.Fatalf("unfaulted run: panic %v, err %v", o.panic, o.err)
			}
			requireSameRelation(t, c.name, o.rel, want)
		}
		for _, point := range points {
			for _, after := range afters {
				t.Run(fmt.Sprintf("%s/%s/after%d", c.name, point, after), func(t *testing.T) {
					fault.Set(point, fault.Spec{Mode: fault.ModePanic, After: after, Times: 1})
					defer fault.Clear(point)
					dir := t.TempDir()
					spilled := func() *budget.Tracker {
						return budget.NewTracker(budget.Budget{MaxBytes: c.cap, SpillDir: dir})
					}
					tr := spilled()
					got := run(c.kind, c.in, tr)
					if fault.Fired(point) == 0 {
						exact(t, got)
						noResidue(t, tr, dir)
						return
					}
					fired[point]++
					if _, ok := got.panic.(*fault.Panic); !ok {
						t.Fatalf("recovered %v (err %v), want the injected panic", got.panic, got.err)
					}
					noResidue(t, tr, dir)
					tr = spilled()
					exact(t, run(c.kind, c.in, tr))
					noResidue(t, tr, dir)
				})
			}
		}
	}
	for _, point := range points {
		if fired[point] == 0 {
			t.Errorf("%s never fired — its cases are vacuous", point)
		}
	}
}

// Every join opened under a spill budget emits at most SpillBatchSize
// rows per batch — there the flow keeps only the in-flight output batch
// charged, so the batch size is what stays resident beside a loaded
// partition pair — whether its sides fit in memory or spilled.
func TestBudgetSpillJoinBatchesStaySmall(t *testing.T) {
	in, _, _ := spillJoinInstance(t, 900)
	for _, c := range []struct {
		name    string
		cap     int64
		spilled bool
	}{
		{"in memory", 1 << 30, false},
		{"spilled", 49152, true},
	} {
		ctx, tr := spillCtx(t, c.cap)
		j := Join{Kind: FullJoin, On: expr.MustParse("L.k = R.k"),
			L: Select{Child: NewScan("L", ""), Pred: expr.MustParse("TRUE")},
			R: Select{Child: NewScan("R", ""), Pred: expr.MustParse("TRUE")},
		}
		it, err := Open(ctx, j, in)
		if err != nil {
			t.Fatalf("%s: open: %v", c.name, err)
		}
		largest := 0
		for {
			b, err := it.NextBatch()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if b == nil {
				break
			}
			largest = max(largest, b.Len())
		}
		it.Close()
		if largest > SpillBatchSize {
			t.Errorf("%s: a batch of %d rows, want at most %d", c.name, largest, SpillBatchSize)
		}
		if largest < SpillBatchSize {
			t.Errorf("%s: largest batch %d rows — the test is vacuous", c.name, largest)
		}
		if got := tr.SpillParts() > 0; got != c.spilled {
			t.Errorf("%s: spilled = %v, want %v", c.name, got, c.spilled)
		}
	}
}

// A base relation stays in memory (the instance pins it) while its
// derived counterpart spills; when a spilled partition must recurse,
// the in-memory group splits with the same depth salt as the disk
// partition, so every key still meets its matches.
func TestBudgetSpillJoinRecursionWithInMemorySide(t *testing.T) {
	in, l, r := skewJoinInstance(t, 6144)
	pred := expr.MustParse("L.k = R.k")
	for _, kind := range []JoinKind{InnerJoin, FullJoin} {
		label := fmt.Sprintf("%v/base-left", kind)
		want := JoinRelations(kind, l, r, pred)
		ctx, tr := spillCtx(t, 24576)
		j := Join{Kind: kind, On: pred,
			L: NewScan("L", ""),
			R: Select{Child: NewScan("R", ""), Pred: expr.MustParse("TRUE")},
		}
		it, err := Open(ctx, j, in)
		if err != nil {
			t.Fatalf("%s: open: %v", label, err)
		}
		got, err := Drain(it)
		if err != nil {
			t.Fatalf("%s: drain: %v", label, err)
		}
		if tr.SpillRecursions() == 0 {
			t.Fatalf("%s: no partition recursed — the test is vacuous", label)
		}
		requireSameRelation(t, label, got, want)
		if tr.Rows() != 0 || tr.SpillBytes() != 0 {
			t.Fatalf("%s: resident charges leaked: rows=%d spill=%d", label, tr.Rows(), tr.SpillBytes())
		}
	}
}
