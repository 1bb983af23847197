package relation

// This file implements the column-major execution representation: a
// Batch stores a run of tuples as per-column typed vectors with
// per-column null bitmaps and an optional selection vector. Batches are
// what the streaming operators exchange; the row-major Tuple remains
// the storage and API unit (relations, journals, spill frames), and
// the two convert losslessly at materialization boundaries.
//
// Invariants:
//
//   - Column i of a Batch holds the values of attribute i of the
//     scheme for every physical row, nulls marked in the bitmap.
//   - A column is either uniformly typed (one non-null Kind, cells in
//     a typed vector: []int64, []float64, []string or []bool) or
//     "mixed" (cells individually typed, stored as value.Value). A
//     column silently migrates to mixed the first time a second
//     non-null kind arrives, so arbitrary data is always representable.
//     Int and Float count as distinct kinds here — hashing treats them
//     as one numeric domain, but rendering does not, and the columnar
//     form must reconstruct every Value exactly.
//   - Row hashes computed from a Batch (HashRows, HashRowsOn) are
//     bit-identical to Tuple.Hash64/Tuple.HashOn over the same values:
//     the same FNV-1a chain over the same canonical per-kind framing.
//     Memo-cache fingerprints, spill-partition routing, and journal
//     byte-identity all rest on this.
//   - The selection vector, when set, lists the visible physical rows
//     in order. Operators that filter set it instead of copying
//     columns; materialization applies it.

import (
	"slices"

	"clio/internal/value"
)

// ColVec is one column of a Batch: a typed value vector plus a null
// bitmap. The zero ColVec is an empty column.
type ColVec struct {
	kind  value.Kind // kind of the non-null cells; KindNull until the first non-null arrives
	mixed bool       // true: cells individually typed in vals; typed vectors unused
	nulls []uint64   // bitmap, bit i set = row i is null
	n     int

	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	vals   []value.Value // mixed-path storage (holds every cell, nulls included)
}

// Len returns the number of physical rows in the column.
func (c *ColVec) Len() int { return c.n }

// Kind returns the uniform kind of the column's non-null cells, or
// (value.KindNull, false) when the column is mixed or all-null.
func (c *ColVec) Kind() (value.Kind, bool) {
	if c.mixed || c.kind == value.KindNull {
		return value.KindNull, false
	}
	return c.kind, true
}

// IsNull reports whether row i is null.
func (c *ColVec) IsNull(i int) bool {
	return c.nulls[i>>6]&(1<<(uint(i)&63)) != 0
}

func (c *ColVec) setNull(i int) {
	c.nulls[i>>6] |= 1 << (uint(i) & 63)
}

// growNulls extends the bitmap to cover one more row.
func (c *ColVec) growNulls() {
	if c.n>>6 >= len(c.nulls) {
		c.nulls = append(c.nulls, 0)
	}
}

// Reset empties the column, keeping capacity.
func (c *ColVec) Reset() {
	for i := range c.nulls {
		c.nulls[i] = 0
	}
	c.kind = value.KindNull
	c.mixed = false
	c.n = 0
	c.ints = c.ints[:0]
	c.floats = c.floats[:0]
	// Release string/value payloads so a reused batch does not pin the
	// previous batch's heap data.
	clear(c.strs)
	c.strs = c.strs[:0]
	c.bools = c.bools[:0]
	clear(c.vals)
	c.vals = c.vals[:0]
}

// Append adds v as the next row of the column.
func (c *ColVec) Append(v value.Value) {
	c.growNulls()
	i := c.n
	if c.mixed {
		if v.IsNull() {
			c.setNull(i)
		}
		c.vals = append(c.vals, v)
		c.n++
		return
	}
	if v.IsNull() {
		c.setNull(i)
		c.padTyped(1)
		c.n++
		return
	}
	k := v.Kind()
	if c.kind == value.KindNull {
		// First non-null cell fixes the column kind; backfill the typed
		// vector with placeholders for the null prefix.
		c.kind = k
		c.padTyped(i + 1 - c.typedLen())
	} else if c.kind != k {
		// Kind conflict: migrate the existing c.n rows to mixed storage
		// (n is not yet incremented, so only stored rows materialize).
		c.migrateMixed()
		c.vals = append(c.vals, v)
		c.n++
		return
	} else {
		c.padTyped(1)
	}
	c.n++
	switch k {
	case value.KindInt:
		c.ints[i] = v.IntVal()
	case value.KindFloat:
		c.floats[i] = v.FloatVal()
	case value.KindString:
		c.strs[i] = v.Str()
	case value.KindBool:
		c.bools[i] = v.BoolVal()
	}
}

// typedLen returns the length of the active typed vector.
func (c *ColVec) typedLen() int {
	switch c.kind {
	case value.KindInt:
		return len(c.ints)
	case value.KindFloat:
		return len(c.floats)
	case value.KindString:
		return len(c.strs)
	case value.KindBool:
		return len(c.bools)
	}
	return 0
}

// padTyped appends k zero cells to the active typed vector (null
// placeholders). Before the kind is known there is no vector to pad.
func (c *ColVec) padTyped(k int) {
	if k <= 0 {
		return
	}
	switch c.kind {
	case value.KindInt:
		for j := 0; j < k; j++ {
			c.ints = append(c.ints, 0)
		}
	case value.KindFloat:
		for j := 0; j < k; j++ {
			c.floats = append(c.floats, 0)
		}
	case value.KindString:
		for j := 0; j < k; j++ {
			c.strs = append(c.strs, "")
		}
	case value.KindBool:
		for j := 0; j < k; j++ {
			c.bools = append(c.bools, false)
		}
	}
}

// migrateMixed converts the column to mixed storage, materializing
// every existing cell as a value.Value.
func (c *ColVec) migrateMixed() {
	vals := make([]value.Value, c.n)
	for i := 0; i < c.n; i++ {
		vals[i] = c.valueTyped(i)
	}
	c.mixed = true
	c.vals = vals
	c.ints, c.floats, c.strs, c.bools = nil, nil, nil, nil
}

// valueTyped reconstructs the Value at row i from typed storage.
func (c *ColVec) valueTyped(i int) value.Value {
	if c.IsNull(i) {
		return value.Null
	}
	switch c.kind {
	case value.KindInt:
		return value.Int(c.ints[i])
	case value.KindFloat:
		return value.Float(c.floats[i])
	case value.KindString:
		return value.String(c.strs[i])
	case value.KindBool:
		return value.Bool(c.bools[i])
	}
	return value.Null
}

// Value returns the cell at row i. The returned Value is a copy; the
// call never allocates.
func (c *ColVec) Value(i int) value.Value {
	if c.mixed {
		return c.vals[i]
	}
	return c.valueTyped(i)
}

// mixHashInto folds the column's cells into the per-row hash states for
// the given physical rows: the vectorized equivalent of calling
// v.MixHash64(h[j]) cell by cell, specialized per column kind so the
// inner loop carries no per-cell kind dispatch.
func (c *ColVec) mixHashInto(hs []uint64, rows []int32) {
	if c.mixed {
		for j, r := range rows {
			hs[j] = c.vals[r].MixHash64(hs[j])
		}
		return
	}
	switch c.kind {
	case value.KindNull: // all-null column
		for j := range rows {
			hs[j] = value.MixNullHash(hs[j])
		}
	case value.KindInt:
		for j, r := range rows {
			if c.IsNull(int(r)) {
				hs[j] = value.MixNullHash(hs[j])
			} else {
				hs[j] = value.MixNumericHash(hs[j], float64(c.ints[r]))
			}
		}
	case value.KindFloat:
		for j, r := range rows {
			if c.IsNull(int(r)) {
				hs[j] = value.MixNullHash(hs[j])
			} else {
				hs[j] = value.MixNumericHash(hs[j], c.floats[r])
			}
		}
	case value.KindString:
		for j, r := range rows {
			if c.IsNull(int(r)) {
				hs[j] = value.MixNullHash(hs[j])
			} else {
				hs[j] = value.MixStringHash(hs[j], c.strs[r])
			}
		}
	case value.KindBool:
		for j, r := range rows {
			if c.IsNull(int(r)) {
				hs[j] = value.MixNullHash(hs[j])
			} else {
				hs[j] = value.MixBoolHash(hs[j], c.bools[r])
			}
		}
	}
}

// AppendGather appends the cells of src at the given physical rows, in
// order; a negative row id appends a null cell. When src is uniformly
// typed and c is empty or of the same layout, the copy runs over the
// typed vectors with no per-cell Value boxing, and the bitmap and the
// typed vector grow once per call — the join/distinct output gather
// path.
func (c *ColVec) AppendGather(src *ColVec, rows []int32) {
	fast := !src.mixed && !c.mixed && (c.kind == src.kind || c.kind == value.KindNull || src.kind == value.KindNull)
	if !fast {
		for _, r := range rows {
			if r < 0 {
				c.Append(value.Null)
			} else {
				c.Append(src.Value(int(r)))
			}
		}
		return
	}
	if c.kind == value.KindNull {
		c.kind = src.kind
		c.padTyped(c.n - c.typedLen())
	}
	c.grow(len(rows))
	for _, r := range rows {
		i := c.n
		c.growNulls()
		c.n++
		if r < 0 || src.IsNull(int(r)) {
			c.setNull(i)
			c.padTyped(1)
			continue
		}
		switch c.kind {
		case value.KindNull:
			// src is all-null (kind unset) yet the row is non-null —
			// impossible; keep the cell null for safety.
			c.setNull(i)
		case value.KindInt:
			c.ints = append(c.ints, src.ints[r])
		case value.KindFloat:
			c.floats = append(c.floats, src.floats[r])
		case value.KindString:
			c.strs = append(c.strs, src.strs[r])
		case value.KindBool:
			c.bools = append(c.bools, src.bools[r])
		}
	}
}

// grow makes room for k more rows in the bitmap and the typed vector
// of the column's kind.
func (c *ColVec) grow(k int) {
	if words := (c.n + k + 63) / 64; words > len(c.nulls) {
		c.nulls = slices.Grow(c.nulls, words-len(c.nulls))
	}
	switch c.kind {
	case value.KindInt:
		c.ints = slices.Grow(c.ints, k)
	case value.KindFloat:
		c.floats = slices.Grow(c.floats, k)
	case value.KindString:
		c.strs = slices.Grow(c.strs, k)
	case value.KindBool:
		c.bools = slices.Grow(c.bools, k)
	}
}

// HasNull reports whether any row of the column is null.
func (c *ColVec) HasNull() bool {
	for _, w := range c.nulls {
		if w != 0 {
			return true
		}
	}
	return false
}

// appendFrom appends row i of src as the next row of c.
func (c *ColVec) appendFrom(src *ColVec, i int) {
	if !c.mixed && !src.mixed && (src.kind == c.kind || src.IsNull(i) || c.kind == value.KindNull) {
		// Fast path: same layout (or a null, which any layout takes).
		c.Append(src.Value(i))
		return
	}
	c.Append(src.Value(i))
}

// allNullVec returns a column of n null cells (shared placeholder for
// padded attribute blocks).
func allNullVec(n int) ColVec {
	return ColVec{n: n, nulls: makeOnes(n)}
}

func makeOnes(n int) []uint64 {
	w := (n + 63) / 64
	out := make([]uint64, w)
	for i := range out {
		out[i] = ^uint64(0)
	}
	return out
}

// Batch is a column-major run of tuples over a scheme. See the file
// comment for invariants.
type Batch struct {
	scheme *Scheme
	cols   []ColVec
	n      int     // physical row count
	sel    []int32 // selection vector (visible physical rows, in order); nil = all rows
}

// NewBatch returns an empty batch over the scheme.
func NewBatch(s *Scheme) *Batch {
	return &Batch{scheme: s, cols: make([]ColVec, s.Arity())}
}

// Scheme returns the batch's scheme.
func (b *Batch) Scheme() *Scheme { return b.scheme }

// Rows returns the physical row count (ignoring any selection).
func (b *Batch) Rows() int { return b.n }

// Len returns the visible row count (selection applied).
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// RowID maps a visible row index to its physical row.
func (b *Batch) RowID(i int) int {
	if b.sel != nil {
		return int(b.sel[i])
	}
	return i
}

// Sel returns the selection vector (nil when all physical rows are
// visible). The caller must not mutate it.
func (b *Batch) Sel() []int32 { return b.sel }

// SetSel installs a selection vector of physical row ids, in order.
// Pass nil to make every physical row visible.
func (b *Batch) SetSel(sel []int32) { b.sel = sel }

// Col returns column i. The caller must not mutate it.
func (b *Batch) Col(i int) *ColVec { return &b.cols[i] }

// Reset empties the batch (keeping column capacity) and clears any
// selection.
func (b *Batch) Reset() {
	for i := range b.cols {
		b.cols[i].Reset()
	}
	b.n = 0
	b.sel = nil
}

// AppendTuple adds t's values as the next physical row. The batch must
// have no selection vector installed.
func (b *Batch) AppendTuple(t Tuple) {
	for i := range b.cols {
		b.cols[i].Append(t.At(i))
	}
	b.n++
}

// AppendValues adds one physical row from positional values.
func (b *Batch) AppendValues(vals ...value.Value) {
	for i := range b.cols {
		b.cols[i].Append(vals[i])
	}
	b.n++
}

// AppendRow appends the physical row i of src (which must share b's
// arity; attribute names are not checked — callers align schemes).
func (b *Batch) AppendRow(src *Batch, i int) {
	for c := range b.cols {
		b.cols[c].appendFrom(&src.cols[c], i)
	}
	b.n++
}

// AppendBatch appends every visible row of src, column-wise through
// the typed gather path.
func (b *Batch) AppendBatch(src *Batch) {
	rows := src.physRows(nil)
	b.carve(len(rows), src, nil)
	for c := range b.cols {
		b.cols[c].AppendGather(&src.cols[c], rows)
	}
	b.n += len(rows)
}

// carve gives every column of an empty batch room for k rows gathered
// from the matching column of l ++ r (r may be nil): the null bitmaps
// share one allocation and the typed vectors of each kind share
// another, so a fresh batch costs a few allocations rather than two per
// column. Columns that already have the room keep their storage.
func (b *Batch) carve(k int, l, r *Batch) {
	if b.n != 0 || k == 0 {
		return
	}
	src := func(c int) *ColVec {
		if c < len(l.cols) {
			return &l.cols[c]
		}
		return &r.cols[c-len(l.cols)]
	}
	words := (k + 63) / 64
	var need [value.KindBool + 1]int
	bitmaps := 0
	for c := range b.cols {
		d, s := &b.cols[c], src(c)
		if cap(d.nulls) < words {
			bitmaps++
		}
		if kind := s.kind; !s.mixed && !d.mixed && kind != value.KindNull && d.typedCap(kind) < k {
			need[kind]++
		}
	}
	nulls := make([]uint64, bitmaps*words)
	var ints []int64
	var floats []float64
	var strs []string
	var bools []bool
	if need[value.KindInt] > 0 {
		ints = make([]int64, need[value.KindInt]*k)
	}
	if need[value.KindFloat] > 0 {
		floats = make([]float64, need[value.KindFloat]*k)
	}
	if need[value.KindString] > 0 {
		strs = make([]string, need[value.KindString]*k)
	}
	if need[value.KindBool] > 0 {
		bools = make([]bool, need[value.KindBool]*k)
	}
	for c := range b.cols {
		d, s := &b.cols[c], src(c)
		if cap(d.nulls) < words {
			d.nulls, nulls = nulls[:0:words], nulls[words:]
		}
		if s.mixed || d.mixed || s.kind == value.KindNull || d.typedCap(s.kind) >= k {
			continue
		}
		switch s.kind {
		case value.KindInt:
			d.ints, ints = ints[:0:k], ints[k:]
		case value.KindFloat:
			d.floats, floats = floats[:0:k], floats[k:]
		case value.KindString:
			d.strs, strs = strs[:0:k], strs[k:]
		case value.KindBool:
			d.bools, bools = bools[:0:k], bools[k:]
		}
	}
}

// typedCap returns the capacity of the column's typed vector of kind k.
func (c *ColVec) typedCap(k value.Kind) int {
	switch k {
	case value.KindInt:
		return cap(c.ints)
	case value.KindFloat:
		return cap(c.floats)
	case value.KindString:
		return cap(c.strs)
	case value.KindBool:
		return cap(c.bools)
	}
	return 0
}

// AppendConcatGather appends len(lrows) physical rows formed by
// concatenating row lrows[j] of l with row rrows[j] of r (schemes must
// satisfy b.scheme = l.scheme ++ r.scheme). Row ids are physical; a
// negative id contributes an all-null side — how outer-join padding
// emits. The copy runs column-wise over the typed vectors.
func (b *Batch) AppendConcatGather(l *Batch, lrows []int32, r *Batch, rrows []int32) {
	if len(lrows) != len(rrows) {
		panic("relation: AppendConcatGather row list length mismatch")
	}
	b.carve(len(lrows), l, r)
	lw := len(l.cols)
	for c := 0; c < lw; c++ {
		b.cols[c].AppendGather(&l.cols[c], lrows)
	}
	for c := range r.cols {
		b.cols[lw+c].AppendGather(&r.cols[c], rrows)
	}
	b.n += len(lrows)
}

// View returns a batch sharing b's columns with the given selection of
// physical row ids installed (nil selects every physical row). The
// view is read-only, like the base.
func (b *Batch) View(sel []int32) *Batch {
	return &Batch{scheme: b.scheme, cols: b.cols, n: b.n, sel: sel}
}

// Renamed returns a view of b over scheme s, which must have b's
// arity: the columns, row count and selection are shared — how a scan
// under an alias reads its base relation's cached columns.
func (b *Batch) Renamed(s *Scheme) *Batch {
	if s.Arity() != len(b.cols) {
		panic("relation: Renamed arity mismatch")
	}
	return &Batch{scheme: s, cols: b.cols, n: b.n, sel: b.sel}
}

// ApproxBytes estimates the resident footprint of the batch's visible
// rows — the sum of ApproxBytesRow, computed column-wise.
func (b *Batch) ApproxBytes() int64 {
	n := int64(b.Len())
	total := n * int64(len(b.cols)) * cellBytes
	for c := range b.cols {
		col := &b.cols[c]
		switch {
		case col.mixed:
			for i := 0; i < int(n); i++ {
				if v := col.vals[b.RowID(i)]; v.Kind() == value.KindString {
					total += int64(len(v.Str()))
				}
			}
		case col.kind == value.KindString:
			for i := 0; i < int(n); i++ {
				r := b.RowID(i)
				if !col.IsNull(r) {
					total += int64(len(col.strs[r]))
				}
			}
		}
	}
	return total
}

// Value returns the cell at (visible row i, column c).
func (b *Batch) Value(i, c int) value.Value {
	return b.cols[c].Value(b.RowID(i))
}

// IsNull reports whether cell (visible row i, column c) is null.
func (b *Batch) IsNull(i, c int) bool {
	return b.cols[c].IsNull(b.RowID(i))
}

// Tuple materializes visible row i as a standalone Tuple (one vals
// allocation).
func (b *Batch) Tuple(i int) Tuple {
	r := b.RowID(i)
	vals := make([]value.Value, len(b.cols))
	for c := range b.cols {
		vals[c] = b.cols[c].Value(r)
	}
	return Tuple{scheme: b.scheme, vals: vals}
}

// TupleInto fills scratch (which must have the batch's arity) with
// visible row i's values and returns a Tuple borrowing that storage.
// The returned Tuple is INVALID after the next TupleInto call on the
// same scratch; it exists so predicates can evaluate batch rows without
// per-row allocation.
func (b *Batch) TupleInto(scratch []value.Value, i int) Tuple {
	r := b.RowID(i)
	for c := range b.cols {
		scratch[c] = b.cols[c].Value(r)
	}
	return Tuple{scheme: b.scheme, vals: scratch}
}

// identityRows lists the row ids 0, 1, 2, …: a batch without a
// selection vector of at most its length passes a prefix of it as its
// physical rows instead of building the list.
var identityRows = func() []int32 {
	ids := make([]int32, 1024)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}()

// physRows returns the visible physical rows as an []int32. The result
// is read-only; scratch, when large enough, spares an allocation for a
// long batch without a selection vector.
func (b *Batch) physRows(scratch []int32) []int32 {
	if b.sel != nil {
		return b.sel
	}
	if b.n <= len(identityRows) {
		return identityRows[:b.n:b.n]
	}
	scratch = scratch[:0]
	for i := 0; i < b.n; i++ {
		scratch = append(scratch, int32(i))
	}
	return scratch
}

// HashRows computes the canonical 64-bit whole-row hash of every
// visible row into dst (which must have length Len()). The result per
// row is bit-identical to Tuple.Hash64 of the same values.
func (b *Batch) HashRows(dst []uint64, rowScratch []int32) []int32 {
	rows := b.physRows(rowScratch)
	for j := range dst {
		dst[j] = value.HashSeed()
	}
	for c := range b.cols {
		b.cols[c].mixHashInto(dst, rows)
	}
	return rows
}

// HashRowsOn computes the canonical hash of the given columns (in
// order) for every visible row into dst — bit-identical to
// Tuple.HashOn over the same positions.
func (b *Batch) HashRowsOn(positions []int, dst []uint64, rowScratch []int32) []int32 {
	rows := b.physRows(rowScratch)
	for j := range dst {
		dst[j] = value.HashSeed()
	}
	for _, p := range positions {
		b.cols[p].mixHashInto(dst, rows)
	}
	return rows
}

// HashRowsAt is HashRowsOn for the given physical rows: dst[j] is the
// hash of row rows[j] on positions.
func (b *Batch) HashRowsAt(positions []int, rows []int32, dst []uint64) {
	for j := range dst {
		dst[j] = value.HashSeed()
	}
	for _, p := range positions {
		b.cols[p].mixHashInto(dst, rows)
	}
}

// EqualRows reports whether visible row i of b equals visible row j of
// o value-wise (null equal to null). Schemes must be value-aligned.
func (b *Batch) EqualRows(i int, o *Batch, j int) bool {
	ri, rj := b.RowID(i), o.RowID(j)
	for c := range b.cols {
		if !b.cols[c].Value(ri).Equal(o.cols[c].Value(rj)) {
			return false
		}
	}
	return true
}

// EqualRowsOn reports whether visible row i of b at positions pos
// equals visible row j of o at positions opos.
func (b *Batch) EqualRowsOn(i int, o *Batch, j int, pos, opos []int) bool {
	if len(pos) != len(opos) {
		return false
	}
	ri, rj := b.RowID(i), o.RowID(j)
	for k, p := range pos {
		if !b.cols[p].Value(ri).Equal(o.cols[opos[k]].Value(rj)) {
			return false
		}
	}
	return true
}

// HasNullAt reports whether visible row i is null on any of the given
// columns.
func (b *Batch) HasNullAt(i int, positions []int) bool {
	r := b.RowID(i)
	for _, p := range positions {
		if b.cols[p].IsNull(r) {
			return true
		}
	}
	return false
}

// ApproxBytesRow estimates the resident footprint of visible row i,
// matching Tuple.ApproxBytes for the same values.
func (b *Batch) ApproxBytesRow(i int) int64 {
	r := b.RowID(i)
	n := int64(len(b.cols)) * cellBytes
	for c := range b.cols {
		col := &b.cols[c]
		if col.mixed {
			if v := col.vals[r]; v.Kind() == value.KindString {
				n += int64(len(v.Str()))
			}
		} else if col.kind == value.KindString && !col.IsNull(r) {
			n += int64(len(col.strs[r]))
		}
	}
	return n
}

// Remapped returns a view of b over the target scheme: column t of the
// view is column perm[t] of b, or an all-null column when perm[t] < 0.
// Columns are shared, not copied — remapping is how projection onto a
// wider padded scheme (PadTo) and pure column-permutation projections
// execute in O(arity) instead of O(rows·arity). The view shares b's
// selection vector and lifetime.
func (b *Batch) Remapped(target *Scheme, perm []int) *Batch {
	out := &Batch{scheme: target, cols: make([]ColVec, len(perm)), n: b.n, sel: b.sel}
	var nullCol ColVec
	nullBuilt := false
	for t, p := range perm {
		if p >= 0 {
			out.cols[t] = b.cols[p]
		} else {
			if !nullBuilt {
				nullCol = allNullVec(b.n)
				nullBuilt = true
			}
			out.cols[t] = nullCol
		}
	}
	return out
}

// PadPerm computes the Remapped permutation that pads/aligns rows of
// scheme from onto scheme to: position t of to reads position
// PadPerm[t] of from, or null when from lacks the attribute. It is the
// columnar equivalent of Tuple.PadTo (and of Tuple.Project when every
// attribute is present).
func PadPerm(from, to *Scheme) []int {
	perm := make([]int, to.Arity())
	for t, n := range to.Names() {
		perm[t] = from.Index(n)
	}
	return perm
}

// BatchFromRelation builds a column-major copy of r's tuples. The fill
// runs column-wise: each column sniffs its kind from the first non-null
// cell and bulk-fills the typed vector, falling back to generic appends
// only when a kind conflict forces mixed storage.
func BatchFromRelation(r *Relation) *Batch {
	b := NewBatch(r.Scheme())
	tuples := r.Tuples()
	n := len(tuples)
	if n == 0 {
		return b
	}
	b.n = n
	words := (n + 63) / 64
	// Sniff each column's kind from its first non-null cell, then carve
	// the bitmaps from one allocation and each kind's typed vectors from
	// another.
	kinds := make([]value.Kind, len(b.cols))
	var need [value.KindBool + 1]int
	for c := range b.cols {
		for _, t := range tuples {
			if v := t.At(c); !v.IsNull() {
				kinds[c] = v.Kind()
				break
			}
		}
		need[kinds[c]]++
	}
	nulls := make([]uint64, len(b.cols)*words)
	var ints []int64
	var floats []float64
	var strs []string
	var bools []bool
	if need[value.KindInt] > 0 {
		ints = make([]int64, need[value.KindInt]*n)
	}
	if need[value.KindFloat] > 0 {
		floats = make([]float64, need[value.KindFloat]*n)
	}
	if need[value.KindString] > 0 {
		strs = make([]string, need[value.KindString]*n)
	}
	if need[value.KindBool] > 0 {
		bools = make([]bool, need[value.KindBool]*n)
	}
	for c := range b.cols {
		col := &b.cols[c]
		col.nulls, nulls = nulls[:words:words], nulls[words:]
		col.n = n
		kind := kinds[c]
		col.kind = kind
		switch kind {
		case value.KindNull:
			for w := range col.nulls {
				col.nulls[w] = ^uint64(0)
			}
			if tail := uint(n) & 63; tail != 0 {
				col.nulls[words-1] = (1 << tail) - 1
			}
			continue
		case value.KindInt:
			col.ints, ints = ints[:n:n], ints[n:]
		case value.KindFloat:
			col.floats, floats = floats[:n:n], floats[n:]
		case value.KindString:
			col.strs, strs = strs[:n:n], strs[n:]
		case value.KindBool:
			col.bools, bools = bools[:n:n], bools[n:]
		}
		for i, t := range tuples {
			v := t.At(c)
			if v.IsNull() {
				col.setNull(i)
				continue
			}
			if v.Kind() != kind {
				// Kind conflict: rebuild this column generically.
				*col = ColVec{}
				for _, u := range tuples {
					col.Append(u.At(c))
				}
				break
			}
			switch kind {
			case value.KindInt:
				col.ints[i] = v.IntVal()
			case value.KindFloat:
				col.floats[i] = v.FloatVal()
			case value.KindString:
				col.strs[i] = v.Str()
			case value.KindBool:
				col.bools[i] = v.BoolVal()
			}
		}
	}
	return b
}

// AppendBatch materializes every visible row of b as a tuple of r. The
// value storage of the whole batch is carved from one slab, so a large
// materialization performs O(batches) allocations, not O(rows).
func (r *Relation) AppendBatch(b *Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	w := b.scheme.Arity()
	slab := make([]value.Value, n*w)
	for i := 0; i < n; i++ {
		row := b.RowID(i)
		vals := slab[i*w : (i+1)*w : (i+1)*w]
		for c := 0; c < w; c++ {
			vals[c] = b.cols[c].Value(row)
		}
		r.tuples = append(r.tuples, Tuple{scheme: r.scheme, vals: vals})
	}
	r.version++
}

// BorrowTuple wraps positional values as a Tuple over s WITHOUT
// copying. The caller keeps ownership of vals: the Tuple is only valid
// while vals is unchanged. Columnar kernels use this to run row-wise
// predicates against scratch buffers without per-row allocation.
func BorrowTuple(s *Scheme, vals []value.Value) Tuple {
	if len(vals) != s.Arity() {
		panic("relation: BorrowTuple arity mismatch")
	}
	return Tuple{scheme: s, vals: vals}
}
