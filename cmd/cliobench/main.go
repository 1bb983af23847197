// Command cliobench runs the performance experiments E1–E8 described
// in EXPERIMENTS.md and prints one markdown table per experiment. The
// paper publishes no performance numbers, so these experiments
// characterize the algorithms the paper relies on and verify the
// expected shapes (who wins, how gaps scale).
//
// Usage:
//
//	cliobench              # run everything
//	cliobench -exp E1      # one experiment
//	cliobench -quick       # smaller sweeps (CI-sized)
//	cliobench -json f.json # also write stats + metric snapshots as JSON
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"clio/internal/algebra"
	"clio/internal/core"
	"clio/internal/csvio"
	"clio/internal/datagen"
	"clio/internal/discovery"
	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/paperdb"
	"clio/internal/relation"
	"clio/internal/value"
)

var (
	quick    = flag.Bool("quick", false, "smaller sweeps")
	once     = flag.Bool("once", false, "run each measured phase exactly once (smoke mode)")
	jsonPath = flag.String("json", "", "write per-experiment stats and engine metric snapshots to `file`")
	diffPath = flag.String("diff", "", "compare this run's medians against baseline `file` and fail on >25% regression (structural check only under -quick/-once)")
)

// out is the harness output sink; tests redirect it.
var out io.Writer = os.Stdout

// ctx is the root context for all measured engine calls.
var ctx = context.Background()

func main() {
	exp := flag.String("exp", "", "experiment to run (E1..E6, E8, E10); empty runs all")
	flag.Parse()
	if *jsonPath != "" {
		// Collect engine counters/histograms per experiment, and retain
		// span trees so each stats record can name its slowest run.
		obs.SetEnabled(true)
		obs.SetExporter(obs.NewTraceBuffer(16, obs.CurrentExporter()))
	}
	if *diffPath != "" && *exp == "" {
		// The committed baseline covers the core experiment; diffing a
		// full sweep would compare mostly-unbaselined cells.
		*exp = "E10"
	}
	all := map[string]func(){
		"E1": e1, "E2": e2, "E3": e3, "E4": e4,
		"E5": e5, "E6": e6, "E8": e8,
		"E10": e10,
	}
	if *exp != "" {
		f, ok := all[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "cliobench: unknown experiment %q\n", *exp)
			os.Exit(1)
		}
		f()
	} else {
		for _, k := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E8", "E10"} {
			all[k]()
		}
	}
	if err := writeJSON(); err != nil {
		fmt.Fprintln(os.Stderr, "cliobench:", err)
		os.Exit(1)
	}
	if *diffPath != "" {
		if err := runDiff(*diffPath, !*quick && !*once); err != nil {
			fmt.Fprintln(os.Stderr, "cliobench:", err)
			os.Exit(1)
		}
	}
}

// stats summarizes repeated timings of one measured phase.
type stats struct {
	Min          time.Duration `json:"min_ns"`
	Median       time.Duration `json:"median_ns"`
	P50          time.Duration `json:"p50_ns"`
	P95          time.Duration `json:"p95_ns"`
	P99          time.Duration `json:"p99_ns"`
	Runs         int           `json:"runs"`
	SlowestTrace string        `json:"slowest_trace,omitempty"`
}

// String renders the median with the min–p95 spread.
func (s stats) String() string {
	return fmt.Sprintf("%s [%s–%s]",
		s.Median.Round(time.Microsecond), s.Min.Round(time.Microsecond), s.P95.Round(time.Microsecond))
}

// timedRun times one run of f. With instrumentation on (-json), the
// run executes under its own root span stamped with a fresh trace ID,
// so each sample's span tree lands in the retained-trace buffer and
// stats can name the slowest run's trace.
func timedRun(f func()) (time.Duration, string) {
	if !obs.Enabled() {
		start := time.Now()
		f()
		return time.Since(start), ""
	}
	id := obs.NewTraceID()
	saved := ctx
	rctx, span := obs.StartSpan(obs.WithTraceID(saved, id), "bench.run")
	span.SetStr("trace_id", id)
	ctx = rctx // experiments close over the package ctx
	start := time.Now()
	f()
	d := time.Since(start)
	ctx = saved
	span.End()
	return d, id
}

// measure times f repeatedly (until ~100ms of total work, at least 3
// and at most 9 runs) and reports min/p50/p95/p99 over the samples.
// In -once mode (CI smoke) each phase runs exactly one iteration.
func measure(f func()) stats {
	if *once {
		d, id := timedRun(f)
		return stats{Min: d, Median: d, P50: d, P95: d, P99: d, Runs: 1, SlowestTrace: id}
	}
	type sample struct {
		d     time.Duration
		trace string
	}
	var samples []sample
	var total time.Duration
	for (total < 100*time.Millisecond && len(samples) < 9) || len(samples) < 3 {
		d, id := timedRun(f)
		samples = append(samples, sample{d, id})
		total += d
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].d < samples[j].d })
	q := func(p float64) time.Duration {
		i := int(p * float64(len(samples)-1))
		return samples[i].d
	}
	return stats{
		Min:          samples[0].d,
		Median:       q(0.5),
		P50:          q(0.5),
		P95:          q(0.95),
		P99:          q(0.99),
		Runs:         len(samples),
		SlowestTrace: samples[len(samples)-1].trace,
	}
}

// expDoc is one experiment's JSON document: the rendered table, the
// raw timing quantiles behind every measured cell, and the engine
// metrics the experiment's phases incremented.
type expDoc struct {
	ID      string       `json:"id"`
	Title   string       `json:"title"`
	Columns []string     `json:"columns"`
	Rows    [][]string   `json:"rows"`
	Stats   []statEntry  `json:"stats,omitempty"`
	Metrics obs.Snapshot `json:"metrics"`
}

// statEntry is one measured cell's full quantile record, keyed by its
// table position so consumers can join it back to the rendered row.
type statEntry struct {
	Row string `json:"row"` // first cell of the table row
	Col string `json:"col"` // column header
	stats
}

var (
	docs   []expDoc
	curDoc *expDoc
)

// finishDoc snapshots the metrics accumulated since the experiment's
// header and closes its document.
func finishDoc() {
	if curDoc == nil {
		return
	}
	curDoc.Metrics = obs.SnapshotDefault()
	docs = append(docs, *curDoc)
	curDoc = nil
}

func writeJSON() error {
	finishDoc()
	if *jsonPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(docs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
}

func header(id, title string, cols ...string) {
	finishDoc()
	if *jsonPath != "" || *diffPath != "" {
		// Metrics in each document cover exactly one experiment (the
		// diff gate also needs the per-cell stats collected into docs).
		obs.ResetDefault()
		curDoc = &expDoc{ID: id, Title: title, Columns: cols}
	}
	fmt.Fprintf(out, "\n## %s — %s\n\n|", id, title)
	for _, c := range cols {
		fmt.Fprintf(out, " %s |", c)
	}
	fmt.Fprintf(out, "\n|")
	for range cols {
		fmt.Fprintf(out, "---|")
	}
	fmt.Fprintln(out)
}

func cell(c any) string {
	switch v := c.(type) {
	case time.Duration:
		return v.Round(time.Microsecond).String()
	default:
		return fmt.Sprintf("%v", c)
	}
}

func row(cells ...any) {
	rendered := make([]string, len(cells))
	for i, c := range cells {
		rendered[i] = cell(c)
	}
	if curDoc != nil {
		curDoc.Rows = append(curDoc.Rows, rendered)
		for i, c := range cells {
			if s, ok := c.(stats); ok {
				col := ""
				if i < len(curDoc.Columns) {
					col = curDoc.Columns[i]
				}
				curDoc.Stats = append(curDoc.Stats, statEntry{Row: rendered[0], Col: col, stats: s})
			}
		}
	}
	fmt.Fprintf(out, "|")
	for _, c := range rendered {
		fmt.Fprintf(out, " %s |", c)
	}
	fmt.Fprintln(out)
}

// E1: full disjunction — subgraph enumeration vs outer-join sequence
// on chain query graphs of growing length.
func e1() {
	lengths := []int{2, 3, 4, 5, 6, 8, 10}
	rows := 200
	if *quick {
		lengths = []int{2, 3, 4, 5}
		rows = 50
	}
	header("E1", "full disjunction: SubgraphJoin vs OuterJoinTree (chain, rows="+itoa(rows)+")",
		"chain length", "subgraphs", "|D(G)|", "SubgraphJoin", "OuterJoinTree", "speedup")
	for _, n := range lengths {
		c := datagen.Chain(datagen.ChainSpec{Relations: n, Rows: rows, KeySpace: rows / 2, MatchProb: 0.85, Seed: 42})
		subs := len(c.Graph.ConnectedSubsets())
		var dg *relation.Relation
		tSub := measure(func() { dg, _ = fd.FullDisjunction(ctx, c.Graph, c.Instance) })
		tOJ := measure(func() { _, _ = fd.FullDisjunctionOuterJoin(ctx, c.Graph, c.Instance) })
		row(n, subs, dg.Len(), tSub, tOJ, ratio(tSub.Median, tOJ.Median))
	}
}

// E2: subsumption removal — naive pairwise vs mask-partitioned.
func e2() {
	sizes := []int{200, 400, 800, 1600, 3200}
	if *quick {
		sizes = []int{100, 200, 400}
	}
	header("E2", "subsumption removal: naive O(n²) vs mask-partitioned",
		"tuples", "survivors", "naive", "partitioned", "speedup")
	for _, n := range sizes {
		r := nullRichRelation(n, 6, 3)
		var out *relation.Relation
		tNaive := measure(func() { out = relation.RemoveSubsumedNaive(r.Distinct()) })
		tFast := measure(func() { out = relation.RemoveSubsumed(r) })
		row(n, out.Len(), tNaive, tFast, ratio(tNaive.Median, tFast.Median))
	}
}

func nullRichRelation(rows, arity, domain int) *relation.Relation {
	names := make([]string, arity)
	for i := range names {
		names[i] = fmt.Sprintf("R.a%d", i)
	}
	s := relation.NewScheme(names...)
	r := relation.New("R", s)
	seed := uint64(12345)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	for i := 0; i < rows; i++ {
		vals := make([]value.Value, arity)
		for j := range vals {
			if next(3) == 0 {
				vals[j] = value.Null
			} else {
				vals[j] = value.Int(int64(next(domain)))
			}
		}
		r.AddValues(vals...)
	}
	return r
}

// E3: sufficient illustration selection over growing D(G).
func e3() {
	sizes := []int{100, 200, 400, 800}
	if *quick {
		sizes = []int{50, 100}
	}
	header("E3", "sufficient illustration: greedy cover over D(G) (chain of 4)",
		"rows/relation", "|D(G)|", "examples chosen", "time")
	for _, n := range sizes {
		c := datagen.Chain(datagen.ChainSpec{Relations: 4, Rows: n, KeySpace: n / 2, MatchProb: 0.8, Seed: 7})
		c.Mapping.TargetFilters = []expr.Expr{expr.MustParse("T.vR0 IS NOT NULL")}
		dg, err := fd.Compute(ctx, c.Graph, c.Instance)
		if err != nil {
			panic(err)
		}
		var il core.Illustration
		t := measure(func() {
			full, err := core.ExamplesOn(ctx, c.Mapping, c.Instance, dg)
			if err != nil {
				panic(err)
			}
			il = core.SelectSufficient(ctx, c.Mapping, full)
		})
		row(n, dg.Len(), len(il.Examples), t)
	}
}

// E4: walk enumeration over synthetic knowledge graphs.
func e4() {
	type cfg struct{ rels, epn, maxLen int }
	cfgs := []cfg{{10, 3, 2}, {10, 3, 3}, {10, 3, 4}, {20, 3, 3}, {40, 3, 3}, {20, 5, 3}}
	if *quick {
		cfgs = []cfg{{10, 3, 2}, {10, 3, 3}, {20, 3, 3}}
	}
	header("E4", "data walk: path enumeration in the join knowledge graph",
		"relations", "edges/node", "max path len", "paths found", "time")
	for _, c := range cfgs {
		k := datagen.Knowledge(datagen.KnowledgeSpec{Relations: c.rels, EdgesPerNode: c.epn, Seed: 9})
		var n int
		t := measure(func() { n = len(k.Paths("R0", fmt.Sprintf("R%d", c.rels-1), c.maxLen)) })
		row(c.rels, c.epn, c.maxLen, n, t)
	}
}

// E5: data chase lookup — inverted index vs full scan.
func e5() {
	sizes := []int{1000, 10000, 100000}
	if *quick {
		sizes = []int{1000, 10000}
	}
	header("E5", "data chase: inverted value index vs full scan",
		"total cells", "index build", "indexed probe", "scan probe", "probe speedup")
	for _, n := range sizes {
		rows := n / (4 * 5)
		in := datagen.WideInstance(4, 5, rows, rows/2+1, 3)
		var ix *discovery.ValueIndex
		tBuild := measure(func() { ix = discovery.BuildValueIndex(ctx, in) })
		v := value.Int(7)
		tProbe := measure(func() {
			for i := 0; i < 1000; i++ {
				ix.Occurrences(v)
			}
		}).div(1000)
		tScan := measure(func() { discovery.OccurrencesScan(in, v) })
		row(n, tBuild, tProbe, tScan, ratio(tScan.Median, tProbe.Median))
	}
}

// E6: mapping evaluation over D(G) vs the left-outer-join view.
func e6() {
	sizes := []int{100, 200, 400, 800}
	if *quick {
		sizes = []int{50, 100}
	}
	header("E6", "mapping evaluation: D(G) pipeline vs LEFT JOIN view (chain of 4, root required)",
		"rows/relation", "result rows", "via D(G)", "via LEFT JOINs", "ratio")
	for _, n := range sizes {
		c := datagen.Chain(datagen.ChainSpec{Relations: 4, Rows: n, KeySpace: n / 2, MatchProb: 0.8, Seed: 11})
		c.Mapping.SourceFilters = []expr.Expr{expr.MustParse("R0.k IS NOT NULL")}
		var res *relation.Relation
		tDG := measure(func() { res, _ = c.Mapping.Evaluate(c.Instance) })
		tLJ := measure(func() { _, _ = c.Mapping.EvaluateViaLeftJoins("R0", c.Instance) })
		row(n, res.Len(), tDG, tLJ, ratio(tDG.Median, tLJ.Median))
	}
}

// E8: discovery — IND mining and FK proposal over growing instances.
func e8() {
	type cfg struct{ rels, cols, rows int }
	cfgs := []cfg{{4, 4, 500}, {8, 4, 500}, {8, 8, 500}, {8, 8, 2000}}
	if *quick {
		cfgs = []cfg{{4, 4, 200}, {8, 4, 200}}
	}
	header("E8", "knowledge discovery: IND mining over schema width and rows",
		"relations", "cols", "rows", "INDs", "mine time", "edges", "knowledge time")
	for _, c := range cfgs {
		in := datagen.WideInstance(c.rels, c.cols, c.rows, c.rows/4+1, 5)
		var n, edges int
		t := measure(func() { n = len(discovery.DiscoverINDs(ctx, in, 0.95)) })
		tk := measure(func() { edges = len(discovery.BuildKnowledge(ctx, in, true, 0.95).Edges()) })
		row(c.rels, c.cols, c.rows, n, t, edges, tk)
	}
}

// E10: execution-core micro-benchmarks — the hot kernels under every
// endpoint: the Figure-8 D(G) (paper instance and a scaled chain),
// hash join, minimum union, and duplicate elimination. `make bench`
// runs exactly this experiment and writes BENCH_core.json, so core
// refactors can quote before/after numbers from one command.
func e10() {
	joinRows := 5000
	muRows := 2000
	chainRows := 400
	createRows := 2000
	if *quick {
		joinRows, muRows, chainRows, createRows = 500, 300, 100, 200
	}
	header("E10", "execution core: D(G), hash join, minimum union, distinct kernels",
		"workload", "in rows", "out rows", "time", "allocs/op")

	// Figure-8 D(G): the paper's canonical full disjunction (Children,
	// Parents, PhoneDir over the Figure 1 instance).
	fig := paperdb.Figure6G()
	fin := paperdb.Instance()
	var dg *relation.Relation
	t, allocs := measureAllocs(func() { dg, _ = fd.Compute(ctx, fig.Graph, fin) })
	row("figure8 D(G)", fin.TotalTuples(), dg.Len(), t, allocs)

	// Scaled D(G): chain of 4 relations.
	c := datagen.Chain(datagen.ChainSpec{Relations: 4, Rows: chainRows, KeySpace: chainRows / 2, MatchProb: 0.85, Seed: 42})
	t, allocs = measureAllocs(func() { dg, _ = fd.Compute(ctx, c.Graph, c.Instance) })
	row("chain-4 D(G)", chainRows*4, dg.Len(), t, allocs)

	// Materialize: the delta-maintainable D(G) a rebuild makes (D(G)
	// computed, then its front seeded in bulk).
	var mat *fd.Materialized
	t, allocs = measureAllocs(func() {
		var err error
		if mat, err = fd.NewMaterialized(ctx, c.Graph, c.Instance); err != nil {
			panic(err)
		}
	})
	row("chain-4 materialize", chainRows*4, mat.Rel().Len(), t, allocs)

	// Edit loop: one net-zero row edit (insert + delete on R0) against
	// the same chain-4 instance, with the view refreshed after every
	// mutation. Delta maintenance pays O(delta) per refresh; the
	// recompute loop rebuilds D(G) from scratch each time. The speedup
	// row is the headline number for continuous maintenance.
	r0 := c.Instance.Relation("R0")
	editRow := []value.Value{value.Int(7), value.Int(999_999)}
	tDelta, allocsDelta := measureAllocs(func() {
		r0.AddValues(editRow...)
		tp := r0.At(r0.Len() - 1)
		var mode string
		var err error
		if _, mat, mode, err = fd.MaintainRows(ctx, mat, nil, c.Graph, c.Instance, "R0", tp, false); err != nil {
			panic(err)
		} else if mode != "delta" {
			panic("edit-loop bench: insert maintained via " + mode)
		}
		tp = r0.RemoveAt(r0.Len() - 1)
		if _, mat, mode, err = fd.MaintainRows(ctx, mat, nil, c.Graph, c.Instance, "R0", tp, true); err != nil {
			panic(err)
		} else if mode != "delta" {
			panic("edit-loop bench: delete maintained via " + mode)
		}
	})
	row("chain-4 edit delta", chainRows*4, dg.Len(), tDelta, allocsDelta)
	tRecomp, allocsRecomp := measureAllocs(func() {
		r0.AddValues(editRow...)
		if _, err := fd.FullDisjunction(ctx, c.Graph, c.Instance); err != nil {
			panic(err)
		}
		r0.RemoveAt(r0.Len() - 1)
		if _, err := fd.FullDisjunction(ctx, c.Graph, c.Instance); err != nil {
			panic(err)
		}
	})
	row("chain-4 edit recompute", chainRows*4, dg.Len(), tRecomp, allocsRecomp)
	row("chain-4 edit speedup", "-", "-", ratio(tRecomp.Median, tDelta.Median), "-")

	// Session create: load a five-relation source from CSV and build
	// its join knowledge with IND mining, as a serve session does.
	csvDir, err := os.MkdirTemp("", "cliobench-csv-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(csvDir)
	shop := datagen.ECommerce(datagen.ECommerceSpec{Customers: createRows / 4, Orders: createRows / 2,
		LinesPerOrder: 3, Products: createRows / 8, ShipRate: 0.7, Seed: 17})
	if err := csvio.SaveDir(csvDir, shop); err != nil {
		panic(err)
	}
	var edges int
	t, allocs = measureAllocs(func() {
		in, err := csvio.LoadDir(csvDir)
		if err != nil {
			panic(err)
		}
		edges = len(discovery.BuildKnowledge(ctx, in, true, 1).Edges())
	})
	row("create: csv load + mine", shop.TotalTuples(), edges, t, allocs)

	// Hash join: equi-join of two synthetic relations.
	l, r := joinPair(joinRows)
	pred := expr.MustParse("L.k = R.k")
	var j *relation.Relation
	t, allocs = measureAllocs(func() { j = algebra.JoinRelations(algebra.InnerJoin, l, r, pred) })
	row("hash join", joinRows*2, j.Len(), t, allocs)

	// Grace-hash spill join: the same equi-join forced through temp-file
	// partitions by a resident cap far below the inputs (full size they
	// spill; -quick fits and stays in memory), measuring the degradation
	// cost of larger-than-memory joins against the in-memory row above.
	// Both cells run the columnar join the hash-join row measures.
	spillDir, err := os.MkdirTemp("", "cliobench-spill-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(spillDir)
	sctx := fd.WithBudget(ctx, fd.Budget{MaxBytes: 128 << 10, SpillDir: spillDir})
	spillJoin := algebra.Join{Kind: algebra.InnerJoin, On: pred,
		L: algebra.Select{Child: algebra.Materialized{Label: "L", Rel: l}, Pred: expr.MustParse("TRUE")},
		R: algebra.Select{Child: algebra.Materialized{Label: "R", Rel: r}, Pred: expr.MustParse("TRUE")},
	}
	t, allocs = measureAllocs(func() {
		var err error
		if j, err = algebra.Collect(sctx, spillJoin, nil); err != nil {
			panic(err)
		}
	})
	row("spill join (128KB cap)", joinRows*2, j.Len(), t, allocs)

	// Skewed spill join: a Zipf-like key distribution (one hot key
	// holding ~1.5% of each side, the rest spread thin) under a cap
	// that single-level partitioning cannot satisfy — the hot key's
	// partition stays oversized until recursive re-partitioning splits
	// the tail away from it. Quotes the recursion overhead against the
	// uniform spill row above.
	sl, sr2 := skewedJoinPair(joinRows)
	skewDir, err := os.MkdirTemp("", "cliobench-skew-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(skewDir)
	skctx := fd.WithBudget(ctx, fd.Budget{MaxBytes: 96 << 10, SpillDir: skewDir})
	skewJoin := algebra.Join{Kind: algebra.InnerJoin, On: pred,
		L: algebra.Select{Child: algebra.Materialized{Label: "L", Rel: sl}, Pred: expr.MustParse("TRUE")},
		R: algebra.Select{Child: algebra.Materialized{Label: "R", Rel: sr2}, Pred: expr.MustParse("TRUE")},
	}
	t, allocs = measureAllocs(func() {
		var err error
		if j, err = algebra.Collect(skctx, skewJoin, nil); err != nil {
			panic(err)
		}
	})
	row("skewed spill join (96KB cap)", joinRows*2, j.Len(), t, allocs)

	// Minimum union: subsumption removal over a null-rich relation.
	nr := nullRichRelation(muRows, 6, 3)
	var mu *relation.Relation
	t, allocs = measureAllocs(func() { mu = relation.RemoveSubsumed(nr) })
	row("minunion sweep", muRows, mu.Len(), t, allocs)

	// Distinct: duplicate elimination over the same null-rich data.
	var d *relation.Relation
	t, allocs = measureAllocs(func() { d = nr.Distinct() })
	row("distinct", muRows, d.Len(), t, allocs)
}

// skewedJoinPair builds L(k, v) and R(k, w) with one hot key (every
// 64th row) and a long thin tail, so grace-hash partitioning leaves
// one partition far above its fair share.
func skewedJoinPair(rows int) (*relation.Relation, *relation.Relation) {
	l := relation.New("L", relation.NewScheme("L.k", "L.v"))
	r := relation.New("R", relation.NewScheme("R.k", "R.w"))
	key := func(i int) int64 {
		if i%64 == 0 {
			return 0
		}
		return int64(i%1499 + 1)
	}
	for i := 0; i < rows; i++ {
		l.AddValues(value.Int(key(i)), value.String(fmt.Sprintf("lv%d", i)))
		r.AddValues(value.Int(key(i)), value.String(fmt.Sprintf("rw%d", i)))
	}
	return l, r
}

// joinPair builds two relations L(k, v) and R(k, w) whose keys overlap
// about half the time.
func joinPair(rows int) (*relation.Relation, *relation.Relation) {
	l := relation.New("L", relation.NewScheme("L.k", "L.v"))
	r := relation.New("R", relation.NewScheme("R.k", "R.w"))
	for i := 0; i < rows; i++ {
		l.AddValues(value.Int(int64(i)), value.String(fmt.Sprintf("lv%d", i)))
		r.AddValues(value.Int(int64(i/2*2)), value.String(fmt.Sprintf("rw%d", i)))
	}
	return l, r
}

// measureAllocs times f like measure and additionally reports the heap
// allocations of one representative run.
func measureAllocs(f func()) (stats, int64) {
	s := measure(f)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return s, int64(after.Mallocs - before.Mallocs)
}

// div scales every quantile down by n (for per-iteration stats of a
// batched measurement).
func (s stats) div(n int) stats {
	s.Min /= time.Duration(n)
	s.Median /= time.Duration(n)
	s.P50 /= time.Duration(n)
	s.P95 /= time.Duration(n)
	s.P99 /= time.Duration(n)
	return s
}

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "∞"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
