package algebra

// The join kernels of the columnar core: a morsel-driven partitioned
// hash join for predicates with an equality conjunct, and a nested
// loop for everything else (cross products included). Both read their
// inputs as materialized batches and emit, in order: matched pairs,
// left outer padding, right outer padding. Output rows are gathered
// column-wise straight from both inputs' vectors
// (AppendConcatGather), null-padding outer rows with a negative row id
// instead of materializing null tuples.
//
// Hash join. Build: the smaller input's key columns are hashed
// vectorized with the canonical row hash, then scattered into hash
// partitions; each worker owns a disjoint set of partitions and builds
// them two-pass (count, fill), so the build table takes no locks and
// buckets list build rows in ascending order. Probe: workers claim
// fixed-size morsels of probe rows from an atomic cursor and probe
// only the partition a hash selects, collecting matched (probe, build)
// pairs per morsel; morsels are stitched back in probe order, so the
// output — matched pairs in probe-row order with ascending build rows
// per probe — is the same whatever the worker count. Below two morsels
// of probe rows everything runs inline on the calling goroutine, on
// one partition; a build side of at most smallBuild rows (a row edit's
// delta) skips the table and compares hashes with each build row. The
// probe loop performs no per-tuple allocation: hashes are precomputed
// vectorized, candidate buckets are arena subslices, and key
// confirmation reads the typed vectors.
//
// Nested loop. Pairs are tested left-major, one output batch at a
// time, so a cross product under a budget stops at its first refused
// batch without ever listing |L|×|R| pairs.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"clio/internal/budget"
	"clio/internal/expr"
	"clio/internal/fault"
	"clio/internal/obs"
	"clio/internal/relation"
	"clio/internal/value"
)

// joinMorsel is the number of probe rows a worker claims at a time.
const joinMorsel = 1024

// smallBuild is the largest build side the join probes by comparing
// every probe row's hash with each build row's instead of through a
// hash table; it hashes scanChunk probe rows at a time into buffers on
// the stack, kept small because they are cleared on every call.
const (
	smallBuild = 8
	scanChunk  = 64
)

// joinWorkers overrides the worker count when positive; tests set it
// to exercise the multi-worker build/probe paths under -race even on a
// single-core host.
var joinWorkers int

// openJoin compiles a join of two plan children, or a cross product
// when on is nil. Under a spill budget the Grace join owns it
// (spilljoin.go); otherwise both children materialize as batches under
// the join's span and a kernel joins them.
func openJoin(ctx context.Context, kind JoinKind, l, r Node, on expr.Expr, in *relation.Instance) (Iterator, error) {
	if budget.FromContext(ctx).SpillEnabled() {
		return openSpillJoin(ctx, kind, l, r, on, in)
	}
	ctx, span := openJoinSpan(ctx, kind, on)
	lb, err := childBatch(ctx, l, in)
	if err != nil {
		span.End()
		return nil, err
	}
	rb, err := childBatch(ctx, r, in)
	if err != nil {
		span.End()
		return nil, err
	}
	return newJoinKernel(ctx, opStats{span: span}, kind, lb, rb, on, BatchSize), nil
}

// openJoinSpan starts the operator span of a join ("op.cross" for a
// cross product).
func openJoinSpan(ctx context.Context, kind JoinKind, on expr.Expr) (context.Context, *obs.Span) {
	if on == nil {
		return openOp(ctx, "op.cross")
	}
	ctx, span := openOp(ctx, "op.join")
	span.SetStr("kind", kind.String())
	return ctx, span
}

// newJoinKernel joins two materialized batches: a hash join when on
// has an equality conjunct between the sides, a nested loop otherwise
// (on == nil is a cross product). Output batches hold at most size
// rows.
func newJoinKernel(ctx context.Context, op opStats, kind JoinKind, lb, rb *relation.Batch, on expr.Expr, size int) Iterator {
	base := joinBase{
		ctx:  ctx,
		flow: budget.FromContext(ctx).NewFlow(),
		kind: kind,
		s:    lb.Scheme().Concat(rb.Scheme()),
		lb:   lb,
		rb:   rb,
		size: size,
		op:   op,
	}
	lw := (lb.Len() + 63) / 64
	bits := make([]uint64, lw+(rb.Len()+63)/64)
	base.lBits, base.rBits = bits[:lw:lw], bits[lw:]
	cJoinCalls.Inc()
	var eqL, eqR []string
	var residual expr.Expr
	if on != nil {
		eqL, eqR, residual = SplitEquiConjuncts(on, lb.Scheme(), rb.Scheme())
	}
	if len(eqL) == 0 {
		cJoinNested.Inc()
		op.span.SetBool("hash", false)
		it := &nestedLoopIter{joinBase: base, pred: on}
		if on != nil {
			it.scratch = make([]value.Value, base.s.Arity())
		}
		return it
	}
	cJoinHash.Inc()
	op.span.SetBool("hash", true)
	it := &hashJoinIter{
		joinBase:  base,
		lPos:      lb.Scheme().Positions(eqL...),
		rPos:      rb.Scheme().Positions(eqR...),
		residual:  residual,
		buildLeft: lb.Len() <= rb.Len(),
	}
	if it.buildLeft {
		cJoinBuildLeft.Inc()
	} else {
		cJoinBuildRight.Inc()
	}
	return it
}

// joinBase is the emission half both kernels share: matched pairs
// (from the kernel's fill), then left padding, then right padding,
// gathered into one output batch of at most size rows and charged
// through the flow.
type joinBase struct {
	ctx          context.Context
	flow         *budget.Flow
	kind         JoinKind
	s            *relation.Scheme
	lb, rb       *relation.Batch
	size         int
	lBits, rBits []uint64 // matched visible rows of each side

	stage  int // 0 pairs, 1 left pad, 2 right pad, 3 done
	cursor int // next visible row of the side being padded

	out             *relation.Batch
	lphys, rphys    []int32 // the batch's rows, as physical row ids
	probes, matches int64
	op              opStats
}

func (j *joinBase) Scheme() *relation.Scheme { return j.s }
func (j *joinBase) Name() string             { return "" }

func (j *joinBase) Close() {
	if j.op.done {
		return
	}
	j.flow.Release()
	cJoinProbes.Add(j.probes)
	cJoinMatches.Add(j.matches)
	cJoinOut.Add(j.op.rows)
	j.op.close()
}

// drained reports whether every output row has been emitted, so the
// batch last returned is the stream's last and stays as it is.
func (j *joinBase) drained() bool { return j.stage == 3 }

// next assembles one output batch. fill appends up to room matched
// pairs to lphys/rphys and reports whether the pairs are exhausted.
func (j *joinBase) next(fill func(room int) bool) (*relation.Batch, error) {
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	j.lphys, j.rphys = j.lphys[:0], j.rphys[:0]
	for len(j.lphys) < j.size && j.stage < 3 {
		room := j.size - len(j.lphys)
		switch j.stage {
		case 0:
			if fill(room) {
				j.stage, j.cursor = 1, 0
			}
		case 1:
			if (j.kind != LeftJoin && j.kind != FullJoin) || j.pad(j.lb, j.lBits, room, true) {
				j.stage, j.cursor = 2, 0
			}
		case 2:
			if (j.kind != RightJoin && j.kind != FullJoin) || j.pad(j.rb, j.rBits, room, false) {
				j.stage = 3
			}
		}
	}
	if len(j.lphys) == 0 {
		return nil, nil
	}
	if j.out == nil {
		j.out = relation.NewBatch(j.s)
	}
	j.out.Reset()
	j.out.AppendConcatGather(j.lb, j.lphys, j.rb, j.rphys)
	if err := j.flow.Charge(int64(j.out.Len()), j.out.ApproxBytes()); err != nil {
		return nil, err
	}
	j.op.observe(j.out.Len())
	return j.out, nil
}

// pad appends up to room unmatched rows of side b (the left side when
// left) with a null other side, and reports whether the side is done.
func (j *joinBase) pad(b *relation.Batch, bits []uint64, room int, left bool) bool {
	n := b.Len()
	for ; j.cursor < n && room > 0; j.cursor++ {
		i := j.cursor
		if bits[i>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		if left {
			j.lphys = append(j.lphys, int32(b.RowID(i)))
			j.rphys = append(j.rphys, -1)
		} else {
			j.lphys = append(j.lphys, -1)
			j.rphys = append(j.rphys, int32(b.RowID(i)))
		}
		room--
	}
	return j.cursor >= n
}

// vjSpan addresses one bucket inside a partition's arena.
type vjSpan struct {
	off, n int32
}

// vjPartition is one build partition: canonical key hash → bucket of
// build rows (visible indices, ascending).
type vjPartition struct {
	spans map[uint64]vjSpan
	arena []int32
}

// hashJoinIter streams a hash join. All build and probe work happens
// on the first NextBatch; emission then walks the pair list.
type hashJoinIter struct {
	joinBase
	lPos, rPos []int
	residual   expr.Expr
	buildLeft  bool

	ran        bool
	pairsProbe []int32 // matched pairs, probe-major (visible indices)
	pairsBuild []int32
	pos        int // next pair to emit
}

func (it *hashJoinIter) NextBatch() (*relation.Batch, error) {
	if !it.ran && it.ctx.Err() == nil {
		it.run()
		it.ran = true
		// Size the row lists for the whole output when it is small.
		n := len(it.pairsProbe)
		if it.kind == LeftJoin || it.kind == FullJoin {
			n += it.lb.Len()
		}
		if it.kind == RightJoin || it.kind == FullJoin {
			n += it.rb.Len()
		}
		n = min(n, it.size)
		it.lphys, it.rphys = make([]int32, 0, n), make([]int32, 0, n)
	}
	return it.next(it.fill)
}

// fill emits the next matched pairs as physical row ids.
func (it *hashJoinIter) fill(room int) bool {
	probe, build := it.rb, it.lb
	if !it.buildLeft {
		probe, build = it.lb, it.rb
	}
	end := min(it.pos+room, len(it.pairsProbe))
	for k := it.pos; k < end; k++ {
		p := int32(probe.RowID(int(it.pairsProbe[k])))
		b := int32(build.RowID(int(it.pairsBuild[k])))
		if it.buildLeft {
			it.lphys = append(it.lphys, b)
			it.rphys = append(it.rphys, p)
		} else {
			it.lphys = append(it.lphys, p)
			it.rphys = append(it.rphys, b)
		}
	}
	it.pos = end
	return it.pos >= len(it.pairsProbe)
}

// run executes build and probe, leaving the pair list and both sides'
// matched bits filled.
func (it *hashJoinIter) run() {
	r := &hashRun{it: it, build: it.lb, probe: it.rb, bPos: it.lPos, pPos: it.rPos, buildBits: it.lBits, probeBits: it.rBits}
	if !it.buildLeft {
		r.build, r.probe = it.rb, it.lb
		r.bPos, r.pPos = it.rPos, it.lPos
		r.buildBits, r.probeBits = it.rBits, it.lBits
	}
	bn, pn := r.build.Len(), r.probe.Len()
	it.probes = int64(pn)
	if bn <= smallBuild && joinWorkers <= 0 {
		r.scanProbe()
		return
	}

	r.workers = joinWorkers
	if r.workers <= 0 {
		r.workers = min(runtime.GOMAXPROCS(0), 8)
		if pn < 2*joinMorsel {
			r.workers = 1
		}
	}
	// Partition count: one inline, else a power of two comfortably
	// above the worker count, so ownership assignment stays balanced.
	r.parts = 1
	for r.workers > 1 && r.parts < 4*r.workers {
		r.parts <<= 1
	}
	r.mask = uint64(r.parts - 1)

	// Vectorized canonical key hashes for both sides.
	r.bHash = make([]uint64, bn)
	r.build.HashRowsOn(r.bPos, r.bHash, nil)
	r.pHash = make([]uint64, pn)
	r.probe.HashRowsOn(r.pPos, r.pHash, nil)

	// Null-key rows never match; mark them column-wise (nil when no key
	// column holds a null).
	r.bSkip = nullKeyRows(r.build, r.bPos)
	r.pSkip = nullKeyRows(r.probe, r.pPos)

	r.morsels = (pn + joinMorsel - 1) / joinMorsel
	r.outs = make([]morselOut, r.morsels)
	r.tables = make([]vjPartition, r.parts)
	if r.workers == 1 {
		r.buildPart(0)
		r.probeMorsels(0)
	} else {
		// Build-side matched bits are per worker (different workers can
		// hit the same build row) and OR-merged after the barrier.
		r.buildMatched = make([][]uint64, r.workers)
		runWorkers(r.workers, r.buildPart)
		runWorkers(r.workers, r.probeMorsels)
		for _, bm := range r.buildMatched {
			for w := range r.buildBits {
				r.buildBits[w] |= bm[w]
			}
		}
	}

	// Stitch morsels back in probe order.
	if r.morsels == 1 {
		it.pairsProbe, it.pairsBuild = r.outs[0].pairsP, r.outs[0].pairsB
	} else {
		total := 0
		for m := range r.outs {
			total += len(r.outs[m].pairsP)
		}
		it.pairsProbe = make([]int32, 0, total)
		it.pairsBuild = make([]int32, 0, total)
		for m := range r.outs {
			it.pairsProbe = append(it.pairsProbe, r.outs[m].pairsP...)
			it.pairsBuild = append(it.pairsBuild, r.outs[m].pairsB...)
		}
	}
	it.matches = int64(len(it.pairsProbe))
}

// hashRun is the state of one hash join's build and probe, shared by
// its workers: they read the hashes and skip lists, and each writes
// only its own partitions, morsels and bits.
type hashRun struct {
	it                   *hashJoinIter
	build, probe         *relation.Batch
	bPos, pPos           []int
	bHash, pHash         []uint64
	bSkip, pSkip         []bool // nil when no key column holds a null
	workers, parts       int
	mask                 uint64
	tables               []vjPartition
	morsels              int
	nextMorsel           atomic.Int64
	outs                 []morselOut
	buildBits, probeBits []uint64
	buildMatched         [][]uint64 // per worker, when more than one
}

// morselOut is one morsel's matched pairs (visible indices).
type morselOut struct {
	pairsP, pairsB []int32
}

// buildPart fills the partitions p with p % workers == w two-pass, so
// each bucket lists build rows in ascending order.
func (r *hashRun) buildPart(w int) {
	bn := len(r.bHash)
	for p := w; p < r.parts; p += r.workers {
		r.tables[p].spans = make(map[uint64]vjSpan, bn/r.parts)
	}
	for j, h := range r.bHash {
		if (r.bSkip != nil && r.bSkip[j]) || int(h&r.mask)%r.workers != w {
			continue
		}
		sp := r.tables[h&r.mask].spans[h]
		sp.n++
		r.tables[h&r.mask].spans[h] = sp
	}
	// Lay buckets out contiguously per partition, then fill forward.
	for p := w; p < r.parts; p += r.workers {
		t := &r.tables[p]
		var off int32
		for h, sp := range t.spans {
			count := sp.n
			t.spans[h] = vjSpan{off: off}
			off += count
		}
		t.arena = make([]int32, off)
	}
	for j, h := range r.bHash {
		if (r.bSkip != nil && r.bSkip[j]) || int(h&r.mask)%r.workers != w {
			continue
		}
		t := &r.tables[h&r.mask]
		sp := t.spans[h]
		t.arena[sp.off+sp.n] = int32(j)
		sp.n++
		t.spans[h] = sp
	}
}

// probeMorsels claims morsels of probe rows from the shared cursor and
// collects each one's matched pairs. Probe-side matched bits are
// written lock-free: joinMorsel is a multiple of 64, so every worker's
// morsels cover disjoint words.
func (r *hashRun) probeMorsels(w int) {
	bm := r.buildBits
	if r.workers > 1 {
		bm = make([]uint64, len(r.buildBits))
		r.buildMatched[w] = bm
	}
	scratch := r.it.residualScratch()
	pn := len(r.pHash)
	for {
		m := int(r.nextMorsel.Add(1)) - 1
		if m >= r.morsels {
			return
		}
		lo, hi := m*joinMorsel, min((m+1)*joinMorsel, pn)
		mo := &r.outs[m]
		for i := lo; i < hi; i++ {
			if r.pSkip != nil && r.pSkip[i] {
				continue
			}
			h := r.pHash[i]
			t := &r.tables[h&r.mask]
			sp, ok := t.spans[h]
			if !ok {
				continue
			}
			for _, bRow := range t.arena[sp.off : sp.off+sp.n] {
				if r.build.EqualRowsOn(int(bRow), r.probe, i, r.bPos, r.pPos) && r.it.residualHolds(i, int(bRow), scratch) {
					mo.pairsP = append(mo.pairsP, int32(i))
					mo.pairsB = append(mo.pairsB, bRow)
					r.probeBits[i>>6] |= 1 << (uint(i) & 63)
					bm[bRow>>6] |= 1 << (uint(bRow) & 63)
				}
			}
		}
	}
}

// scanProbe joins a build side of at most smallBuild rows — a row
// edit's delta — without a table: probe rows are hashed a chunk at a
// time into a stack buffer and compared with each build row's hash in
// turn, so pairs come out in probe order with ascending build rows, as
// from the table. Null build keys never match, and a null probe key
// never equals a non-null one.
func (r *hashRun) scanProbe() {
	it := r.it
	var rows [smallBuild]int32
	var hashes [smallBuild]uint64
	bn := r.build.Len()
	r.build.HashRowsOn(r.bPos, hashes[:bn], nil)
	cand := rows[:0]
	for j := 0; j < bn; j++ {
		if !r.build.HasNullAt(j, r.bPos) {
			cand = append(cand, int32(j))
		}
	}
	if len(cand) == 0 {
		return
	}
	scratch := it.residualScratch()
	var hbuf [scanChunk]uint64
	var rowbuf [scanChunk]int32
	sel := r.probe.Sel()
	for lo, pn := 0, r.probe.Len(); lo < pn; lo += scanChunk {
		hi := min(lo+scanChunk, pn)
		phys := rowbuf[:hi-lo]
		if sel != nil {
			phys = sel[lo:hi]
		} else {
			for i := range phys {
				phys[i] = int32(lo + i)
			}
		}
		hs := hbuf[:hi-lo]
		r.probe.HashRowsAt(r.pPos, phys, hs)
		for i := lo; i < hi; i++ {
			h := hs[i-lo]
			for _, bRow := range cand {
				if hashes[bRow] != h || !r.build.EqualRowsOn(int(bRow), r.probe, i, r.bPos, r.pPos) || !it.residualHolds(i, int(bRow), scratch) {
					continue
				}
				it.pairsProbe = append(it.pairsProbe, int32(i))
				it.pairsBuild = append(it.pairsBuild, bRow)
				r.probeBits[i>>6] |= 1 << (uint(i) & 63)
				r.buildBits[bRow>>6] |= 1 << (uint(bRow) & 63)
			}
		}
	}
	it.matches = int64(len(it.pairsProbe))
}

// residualScratch returns a row buffer for residualHolds (nil without
// a residual predicate).
func (it *hashJoinIter) residualScratch() []value.Value {
	if it.residual == nil {
		return nil
	}
	return make([]value.Value, it.s.Arity())
}

// residualHolds reports whether the residual predicate, if any, is true
// on the pair of probe row p and build row b (visible indices).
func (it *hashJoinIter) residualHolds(p, b int, scratch []value.Value) bool {
	if it.residual == nil {
		return true
	}
	li, ri := b, p
	if !it.buildLeft {
		li, ri = p, b
	}
	lw := it.lb.Scheme().Arity()
	it.lb.TupleInto(scratch[:lw], li)
	it.rb.TupleInto(scratch[lw:], ri)
	return expr.Truth(it.residual, relation.BorrowTuple(it.s, scratch)) == value.True
}

// runWorkers runs f(0), …, f(n-1) on n goroutines and waits for all of
// them. A worker panic is recovered and re-raised on the calling
// goroutine once every worker has returned, so it unwinds into the
// caller's recovery (the serving layer answers 500 for one request)
// instead of killing the process. The "algebra.join.worker" fault
// point lets chaos tests panic or stall a worker; it has no error path.
func runWorkers(n int, f func(w int)) {
	var wg sync.WaitGroup
	panics := make([]any, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { panics[w] = recover() }()
			_ = fault.Inject("algebra.join.worker")
			f(w)
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// nullKeyRows marks the visible rows that are null on any key column,
// column-wise; it returns nil when no key column holds a null.
func nullKeyRows(b *relation.Batch, pos []int) []bool {
	var skip []bool
	n := b.Len()
	for _, p := range pos {
		col := b.Col(p)
		if !col.HasNull() {
			continue
		}
		if skip == nil {
			skip = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			if col.IsNull(b.RowID(i)) {
				skip[i] = true
			}
		}
	}
	return skip
}

// nestedLoopIter streams a nested-loop join: left-major over all
// pairs, each tested with the full predicate (every pair matches when
// pred is nil).
type nestedLoopIter struct {
	joinBase
	pred    expr.Expr
	scratch []value.Value
	li, ri  int // next pair to test (visible indices)
}

func (it *nestedLoopIter) NextBatch() (*relation.Batch, error) { return it.next(it.fill) }

// fill tests pairs until room matches are found or the pairs run out.
func (it *nestedLoopIter) fill(room int) bool {
	ln, rn := it.lb.Len(), it.rb.Len()
	lw := it.lb.Scheme().Arity()
	for ; it.li < ln; it.li, it.ri = it.li+1, 0 {
		if it.pred != nil {
			it.lb.TupleInto(it.scratch[:lw], it.li)
		}
		for it.ri < rn {
			if room == 0 {
				return false
			}
			li, ri := it.li, it.ri
			it.ri++
			it.probes++
			if it.pred != nil {
				it.rb.TupleInto(it.scratch[lw:], ri)
				if expr.Truth(it.pred, relation.BorrowTuple(it.s, it.scratch)) != value.True {
					continue
				}
			}
			it.lBits[li>>6] |= 1 << (uint(li) & 63)
			it.rBits[ri>>6] |= 1 << (uint(ri) & 63)
			it.matches++
			it.lphys = append(it.lphys, int32(it.lb.RowID(li)))
			it.rphys = append(it.rphys, int32(it.rb.RowID(ri)))
			room--
		}
	}
	return true
}
