package algebra

// Morsel-driven partitioned hash join over columnar batches — the
// in-memory equi-join kernel of the columnar core (the spill tier keeps
// the row-based Grace join; OpenVec routes to it when spilling is
// enabled).
//
// Build: the smaller input's key columns are hashed vectorized with the
// canonical row hash, then scattered into hash partitions; each worker
// owns a disjoint set of partitions and builds them with the same
// two-pass (count, fill) arena layout relation.BuildIndex uses, so the
// build table takes no locks and buckets list build rows in ascending
// order. Probe: workers claim fixed-size morsels of probe rows from an
// atomic cursor and probe only the partition a hash selects, collecting
// matched (probe, build) pairs per morsel; morsels are stitched back in
// probe order, so the output — matched pairs in probe-row order with
// ascending build rows per probe, then left padding, then right
// padding — is byte-identical to the row joinIter's, regardless of
// worker count. On a single-core host the whole thing runs inline on
// the calling goroutine: the morsel loop is the same, minus the
// goroutines.
//
// The probe loop performs no per-tuple allocation: hashes are
// precomputed vectorized, candidate buckets are arena subslices, key
// confirmation reads the typed vectors, and pair lists grow
// amortized. Output rows are gathered column-wise straight from both
// children's vectors (AppendConcatGather), null-padding outer rows with
// a negative row id instead of materializing null tuples.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"clio/internal/budget"
	"clio/internal/expr"
	"clio/internal/fault"
	"clio/internal/relation"
	"clio/internal/value"
)

// joinMorsel is the number of probe rows a worker claims at a time.
const joinMorsel = 1024

// vecJoinWorkers overrides the worker count when positive; tests set it
// to exercise the multi-worker build/probe paths under -race even on a
// single-core host.
var vecJoinWorkers int

// openVecJoin materializes both children columnar and joins them. The
// hash path requires at least one equality conjunct; anything else
// degrades to the row nested-loop iterator behind an adapter.
func openVecJoin(ctx context.Context, j Join, in *relation.Instance) (VecIterator, error) {
	lb, lrel, lname, err := vecChildBatch(ctx, j.L, in)
	if err != nil {
		return nil, err
	}
	rb, rrel, rname, err := vecChildBatch(ctx, j.R, in)
	if err != nil {
		return nil, err
	}
	eqL, eqR, residual := SplitEquiConjuncts(j.On, lb.Scheme(), rb.Scheme())
	if len(eqL) == 0 {
		// Nested loop: reuse the row iterator (quadratic either way).
		if lrel == nil {
			lrel = relation.New(lname, lb.Scheme())
			lrel.AppendBatch(lb)
		}
		if rrel == nil {
			rrel = relation.New(rname, rb.Scheme())
			rrel.AppendBatch(rb)
		}
		it := OpenJoin(ctx, j.Kind, lrel, rrel, j.On)
		return &rowVecAdapter{it: it, buf: relation.NewBatch(it.Scheme())}, nil
	}
	ctx, span := openOp(ctx, "op.join")
	span.SetStr("kind", j.Kind.String())
	span.SetBool("hash", true)
	span.SetBool("vec", true)
	if j.EstRows > 0 {
		span.SetInt("est_rows", j.EstRows)
	}
	it := &vecJoinIter{
		ctx:  ctx,
		flow: budget.FromContext(ctx).NewFlow(),
		kind: j.Kind,
		s:    lb.Scheme().Concat(rb.Scheme()),
		lb:   lb,
		rb:   rb,
		lPos: lb.Scheme().Positions(eqL...),
		rPos: rb.Scheme().Positions(eqR...),

		residual: residual,
		op:       opStats{span: span},
	}
	cJoinCalls.Inc()
	cJoinHash.Inc()
	it.buildLeft = lb.Len() <= rb.Len()
	if it.buildLeft {
		cJoinBuildLeft.Inc()
	} else {
		cJoinBuildRight.Inc()
	}
	it.out = relation.NewBatch(it.s)
	return it, nil
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

// vecJoinIter streams the join output. All build and probe work happens
// on the first NextBatch; emission then walks the pair/pad lists in
// VecBatchSize chunks.
type vecJoinIter struct {
	ctx       context.Context
	flow      *budget.Flow
	kind      JoinKind
	s         *relation.Scheme
	lb, rb    *relation.Batch
	lPos      []int
	rPos      []int
	residual  expr.Expr
	buildLeft bool

	ran        bool
	pairsProbe []int32 // matched pairs, probe-major (visible indices)
	pairsBuild []int32
	lPad, rPad []int32 // unmatched outer rows (visible indices)

	stage  int // 0 pairs, 1 left pad, 2 right pad, 3 done
	cursor int

	out             *relation.Batch
	lphys, rphys    []int32 // emission scratch (physical row ids)
	probes, matches int64
	op              opStats
}

func (it *vecJoinIter) Scheme() *relation.Scheme { return it.s }
func (it *vecJoinIter) Name() string             { return "" }

func (it *vecJoinIter) Close() {
	if it.op.done {
		return
	}
	it.flow.Release()
	cJoinProbes.Add(it.probes)
	cJoinMatches.Add(it.matches)
	cJoinOut.Add(it.op.rows)
	it.op.close()
}

func (it *vecJoinIter) NextBatch() (*relation.Batch, error) {
	if err := it.ctx.Err(); err != nil {
		return nil, err
	}
	if !it.ran {
		it.run()
		it.ran = true
	}
	it.out.Reset()
	for it.out.Len() < VecBatchSize && it.stage < 3 {
		room := VecBatchSize - it.out.Len()
		switch it.stage {
		case 0:
			n := min(room, len(it.pairsProbe)-it.cursor)
			if n == 0 {
				it.stage, it.cursor = 1, 0
				continue
			}
			probe, build := it.rb, it.lb
			if !it.buildLeft {
				probe, build = it.lb, it.rb
			}
			it.lphys, it.rphys = it.lphys[:0], it.rphys[:0]
			for k := it.cursor; k < it.cursor+n; k++ {
				p := probe.RowID(int(it.pairsProbe[k]))
				b := build.RowID(int(it.pairsBuild[k]))
				if it.buildLeft {
					it.lphys = append(it.lphys, int32(b))
					it.rphys = append(it.rphys, int32(p))
				} else {
					it.lphys = append(it.lphys, int32(p))
					it.rphys = append(it.rphys, int32(b))
				}
			}
			it.cursor += n
			it.out.AppendConcatGather(it.lb, it.lphys, it.rb, it.rphys)
		case 1:
			if it.kind != LeftJoin && it.kind != FullJoin {
				it.stage, it.cursor = 2, 0
				continue
			}
			n := min(room, len(it.lPad)-it.cursor)
			if n == 0 {
				it.stage, it.cursor = 2, 0
				continue
			}
			it.lphys, it.rphys = it.lphys[:0], it.rphys[:0]
			for k := it.cursor; k < it.cursor+n; k++ {
				it.lphys = append(it.lphys, int32(it.lb.RowID(int(it.lPad[k]))))
				it.rphys = append(it.rphys, -1)
			}
			it.cursor += n
			it.out.AppendConcatGather(it.lb, it.lphys, it.rb, it.rphys)
		case 2:
			if it.kind != RightJoin && it.kind != FullJoin {
				it.stage = 3
				continue
			}
			n := min(room, len(it.rPad)-it.cursor)
			if n == 0 {
				it.stage = 3
				continue
			}
			it.lphys, it.rphys = it.lphys[:0], it.rphys[:0]
			for k := it.cursor; k < it.cursor+n; k++ {
				it.lphys = append(it.lphys, -1)
				it.rphys = append(it.rphys, int32(it.rb.RowID(int(it.rPad[k]))))
			}
			it.cursor += n
			it.out.AppendConcatGather(it.lb, it.lphys, it.rb, it.rphys)
		}
	}
	if it.out.Len() == 0 {
		return nil, nil
	}
	if err := it.flow.Charge(int64(it.out.Len()), it.out.ApproxBytes()); err != nil {
		return nil, err
	}
	it.op.rows += int64(it.out.Len())
	it.op.batches++
	return it.out, nil
}

// run executes build and probe, leaving the pair and pad lists filled.
func (it *vecJoinIter) run() {
	build, probe := it.lb, it.rb
	bPos, pPos := it.lPos, it.rPos
	if !it.buildLeft {
		build, probe = it.rb, it.lb
		bPos, pPos = it.rPos, it.lPos
	}
	bn, pn := build.Len(), probe.Len()
	it.probes = int64(pn)

	workers := vecJoinWorkers
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), 8)
	}
	if pn < 2*joinMorsel && workers > 1 && vecJoinWorkers <= 0 {
		workers = 1
	}
	// Partition count: a power of two comfortably above the worker
	// count, so ownership assignment stays balanced.
	parts := 1
	for parts < 4*workers {
		parts <<= 1
	}
	mask := uint64(parts - 1)

	// Vectorized canonical key hashes for both sides.
	bHash := make([]uint64, bn)
	build.HashRowsOn(bPos, bHash, nil)
	pHash := make([]uint64, pn)
	probe.HashRowsOn(pPos, pHash, nil)

	// Null-key rows never match; mark them column-wise.
	bSkip := nullKeyRows(build, bPos, bn)
	pSkip := nullKeyRows(probe, pPos, pn)

	// Build: each worker owns partitions p with p % workers == w and
	// fills them two-pass, reading the shared hash/skip arrays only.
	tables := make([]vjPartition, parts)
	buildPart := func(w int) {
		for p := w; p < parts; p += workers {
			tables[p].spans = map[uint64]vjSpan{}
		}
		for j := 0; j < bn; j++ {
			if bSkip[j] {
				continue
			}
			h := bHash[j]
			if int(h&mask)%workers != w {
				continue
			}
			sp := tables[h&mask].spans[h]
			sp.n++
			tables[h&mask].spans[h] = sp
		}
		// Lay buckets out contiguously per partition, then fill forward
		// so each bucket lists build rows in ascending order.
		for p := w; p < parts; p += workers {
			t := &tables[p]
			var off int32
			for h, sp := range t.spans {
				count := sp.n
				t.spans[h] = vjSpan{off: off}
				off += count
			}
			t.arena = make([]int32, off)
		}
		for j := 0; j < bn; j++ {
			if bSkip[j] {
				continue
			}
			h := bHash[j]
			if int(h&mask)%workers != w {
				continue
			}
			t := &tables[h&mask]
			sp := t.spans[h]
			t.arena[sp.off+sp.n] = int32(j)
			sp.n++
			t.spans[h] = sp
		}
	}

	// Probe: morsels claimed from an atomic cursor; results kept per
	// morsel and stitched in probe order afterwards.
	type morselOut struct {
		pairsP, pairsB []int32
	}
	morsels := (pn + joinMorsel - 1) / joinMorsel
	outs := make([]morselOut, morsels)
	// Probe-side matched bits are written lock-free: joinMorsel is a
	// multiple of 64, so every worker's morsels cover disjoint words.
	probeMatchedBits := make([]uint64, (pn+63)/64)
	// Build-side matched bits are per worker (different workers can hit
	// the same build row) and OR-merged after the barrier.
	buildMatched := make([][]uint64, workers)
	var nextMorsel atomic.Int64

	probeWorker := func(w int) {
		bm := make([]uint64, (bn+63)/64)
		buildMatched[w] = bm
		var scratch []value.Value
		if it.residual != nil {
			scratch = make([]value.Value, it.s.Arity())
		}
		lw := it.lb.Scheme().Arity()
		for {
			m := int(nextMorsel.Add(1)) - 1
			if m >= morsels {
				return
			}
			lo, hi := m*joinMorsel, min((m+1)*joinMorsel, pn)
			mo := &outs[m]
			for i := lo; i < hi; i++ {
				if pSkip[i] {
					continue
				}
				h := pHash[i]
				t := &tables[h&mask]
				sp, ok := t.spans[h]
				if !ok {
					continue
				}
				for _, bRow := range t.arena[sp.off : sp.off+sp.n] {
					if !build.EqualRowsOn(int(bRow), probe, i, bPos, pPos) {
						continue
					}
					if it.residual != nil {
						li, ri := int(bRow), i
						if !it.buildLeft {
							li, ri = i, int(bRow)
						}
						it.lb.TupleInto(scratch[:lw], li)
						it.rb.TupleInto(scratch[lw:], ri)
						if expr.Truth(it.residual, relation.BorrowTuple(it.s, scratch)) != value.True {
							continue
						}
					}
					mo.pairsP = append(mo.pairsP, int32(i))
					mo.pairsB = append(mo.pairsB, bRow)
					probeMatchedBits[i>>6] |= 1 << (uint(i) & 63)
					bm[bRow>>6] |= 1 << (uint(bRow) & 63)
				}
			}
		}
	}

	if workers == 1 {
		buildPart(0)
		probeWorker(0)
	} else {
		runWorkers(workers, buildPart)
		runWorkers(workers, probeWorker)
	}

	// Stitch morsels back in probe order.
	total := 0
	for m := range outs {
		total += len(outs[m].pairsP)
	}
	it.pairsProbe = make([]int32, 0, total)
	it.pairsBuild = make([]int32, 0, total)
	for m := range outs {
		it.pairsProbe = append(it.pairsProbe, outs[m].pairsP...)
		it.pairsBuild = append(it.pairsBuild, outs[m].pairsB...)
	}
	it.matches = int64(total)

	// Merge build-side matched bits and translate both sides back to
	// left/right pad lists.
	buildBits := make([]uint64, (bn+63)/64)
	for _, bm := range buildMatched {
		if bm == nil {
			continue
		}
		for w := range buildBits {
			buildBits[w] |= bm[w]
		}
	}
	lBits, ln := buildBits, bn
	rBits, rn := probeMatchedBits, pn
	if !it.buildLeft {
		lBits, ln = probeMatchedBits, pn
		rBits, rn = buildBits, bn
	}
	if it.kind == LeftJoin || it.kind == FullJoin {
		for i := 0; i < ln; i++ {
			if lBits[i>>6]&(1<<(uint(i)&63)) == 0 {
				it.lPad = append(it.lPad, int32(i))
			}
		}
	}
	if it.kind == RightJoin || it.kind == FullJoin {
		for i := 0; i < rn; i++ {
			if rBits[i>>6]&(1<<(uint(i)&63)) == 0 {
				it.rPad = append(it.rPad, int32(i))
			}
		}
	}
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
// column-wise.
func nullKeyRows(b *relation.Batch, pos []int, n int) []bool {
	skip := make([]bool, n)
	for _, p := range pos {
		col := b.Col(p)
		for i := 0; i < n; i++ {
			if col.IsNull(b.RowID(i)) {
				skip[i] = true
			}
		}
	}
	return skip
}
