package relation

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"clio/internal/value"
)

// randValue draws from every kind, including the numeric edge cases the
// canonical hash normalizes (NaN, -0.0, cross-kind int/float equality).
func randValue(rng *rand.Rand) value.Value {
	switch rng.Intn(12) {
	case 0, 1:
		return value.Null
	case 2:
		return value.Int(int64(rng.Intn(7) - 3))
	case 3:
		return value.Int(rng.Int63() - rng.Int63())
	case 4:
		return value.Float(rng.NormFloat64() * 100)
	case 5:
		return value.Float(math.NaN())
	case 6:
		return value.Float(math.Copysign(0, -1))
	case 7:
		return value.Float(float64(int64(rng.Intn(7) - 3))) // collides with small ints
	case 8:
		return value.Bool(rng.Intn(2) == 0)
	case 9:
		return value.String("")
	default:
		letters := []byte("abcxyz;:ns123")
		n := rng.Intn(9)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return value.String(string(b))
	}
}

func randTuple(rng *rand.Rand, s *Scheme) Tuple {
	vals := make([]value.Value, s.Arity())
	for i := range vals {
		vals[i] = randValue(rng)
	}
	return NewTuple(s, vals...)
}

// uniformTuple keeps each column single-kinded so the typed (non-mixed)
// vector paths are exercised.
func uniformTuple(rng *rand.Rand, s *Scheme) Tuple {
	vals := make([]value.Value, s.Arity())
	for i := range vals {
		if rng.Intn(4) == 0 {
			vals[i] = value.Null
			continue
		}
		switch i % 4 {
		case 0:
			vals[i] = value.Int(int64(rng.Intn(50)))
		case 1:
			vals[i] = value.Float(rng.Float64())
		case 2:
			vals[i] = value.String(string(rune('a' + rng.Intn(26))))
		case 3:
			vals[i] = value.Bool(rng.Intn(2) == 0)
		}
	}
	return NewTuple(s, vals...)
}

// TestBatchHashKeyIdentity is the load-bearing property of the columnar
// layer: batch-computed row hashes and keys are bit-identical to the
// row-major Tuple ones, for both typed and mixed columns, with and
// without a selection vector.
func TestBatchHashKeyIdentity(t *testing.T) {
	s := NewScheme("a", "b", "c", "d", "e")
	for _, mode := range []string{"mixed", "uniform"} {
		rng := rand.New(rand.NewSource(7))
		tuples := make([]Tuple, 64)
		b := NewBatch(s)
		for i := range tuples {
			if mode == "mixed" {
				tuples[i] = randTuple(rng, s)
			} else {
				tuples[i] = uniformTuple(rng, s)
			}
			b.AppendTuple(tuples[i])
		}

		hashes := make([]uint64, b.Len())
		var rowScratch []int32
		b.HashRows(hashes, rowScratch)
		for i, tp := range tuples {
			if hashes[i] != tp.Hash64() {
				t.Fatalf("%s: row %d HashRows=%x Tuple.Hash64=%x (%v)", mode, i, hashes[i], tp.Hash64(), tp)
			}
			got := b.Tuple(i)
			if !got.Equal(tp) {
				t.Fatalf("%s: row %d round-trip mismatch: %v vs %v", mode, i, got, tp)
			}
		}

		pos := []int{1, 3}
		on := make([]uint64, b.Len())
		b.HashRowsOn(pos, on, rowScratch)
		for i, tp := range tuples {
			if on[i] != tp.HashOn(pos) {
				t.Fatalf("%s: row %d HashRowsOn mismatch", mode, i)
			}
		}

		// Selection vector: keep every third row; hashes follow it.
		var sel []int32
		for i := 0; i < len(tuples); i += 3 {
			sel = append(sel, int32(i))
		}
		b.SetSel(sel)
		selHashes := make([]uint64, b.Len())
		b.HashRows(selHashes, rowScratch)
		for j, phys := range sel {
			if selHashes[j] != tuples[phys].Hash64() {
				t.Fatalf("%s: selected row %d hash mismatch", mode, j)
			}
			if !b.Tuple(j).Equal(tuples[phys]) {
				t.Fatalf("%s: selected row %d tuple mismatch", mode, j)
			}
		}
	}
}

func TestBatchNullAndEqualHelpers(t *testing.T) {
	s := NewScheme("x", "y", "z")
	b := NewBatch(s)
	b.AppendValues(value.Int(1), value.Null, value.String("p"))
	b.AppendValues(value.Int(1), value.Null, value.String("p"))
	b.AppendValues(value.Null, value.Bool(true), value.String("q"))

	if !b.IsNull(0, 1) || b.IsNull(0, 0) {
		t.Fatal("IsNull wrong")
	}
	if !b.EqualRows(0, b, 1) || b.EqualRows(0, b, 2) {
		t.Fatal("EqualRows wrong")
	}
	if !b.HasNullAt(2, []int{0}) || b.HasNullAt(0, []int{0, 2}) {
		t.Fatal("HasNullAt wrong")
	}
	want := b.Tuple(0).ApproxBytes()
	if got := b.ApproxBytesRow(0); got != want {
		t.Fatalf("ApproxBytesRow=%d Tuple.ApproxBytes=%d", got, want)
	}
}

// A budget charge may over-count a cell but never under-count one.
func TestCellBytesCoversValue(t *testing.T) {
	if size := unsafe.Sizeof(value.Value{}); cellBytes < size {
		t.Fatalf("cellBytes = %d is below sizeof(value.Value) = %d", cellBytes, size)
	}
}

// The three byte estimates agree on every row: the column-wise batch
// total is the sum of its rows, and each row matches its tuple, over
// typed columns (uniformTuple's), a mixed one (randValue's), NULLs and
// strings, with and without a selection vector.
func TestBatchApproxBytesSumsRows(t *testing.T) {
	s := NewScheme("i", "f", "s", "b", "m")
	rng := rand.New(rand.NewSource(48))
	b := NewBatch(s)
	for i := 0; i < 200; i++ {
		u := uniformTuple(rng, s)
		b.AppendValues(u.At(0), u.At(1), u.At(2), u.At(3), randValue(rng))
	}
	var sel []int32
	for i := 0; i < b.Rows(); i += 3 {
		sel = append(sel, int32(i))
	}
	for _, view := range []*Batch{b, b.View(sel)} {
		var rows, tuples int64
		for i := 0; i < view.Len(); i++ {
			rows += view.ApproxBytesRow(i)
			tuples += view.Tuple(i).ApproxBytes()
		}
		if got := view.ApproxBytes(); got != rows || got != tuples {
			t.Fatalf("%d rows: ApproxBytes = %d, sum of ApproxBytesRow = %d, sum of Tuple.ApproxBytes = %d", view.Len(), got, rows, tuples)
		}
	}
}

// TestBatchRemapped checks zero-copy pad/projection: remapping onto a
// wider scheme matches Tuple.PadTo, and onto a narrower one matches
// Tuple.Project.
func TestBatchRemapped(t *testing.T) {
	from := NewScheme("a", "b")
	wide := NewScheme("z", "a", "q", "b")
	rng := rand.New(rand.NewSource(3))
	b := NewBatch(from)
	tuples := make([]Tuple, 20)
	for i := range tuples {
		tuples[i] = randTuple(rng, from)
		b.AppendTuple(tuples[i])
	}
	padded := b.Remapped(wide, PadPerm(from, wide))
	for i, tp := range tuples {
		want := tp.PadTo(wide)
		if !padded.Tuple(i).Equal(want) {
			t.Fatalf("row %d padded mismatch: %v vs %v", i, padded.Tuple(i), want)
		}
	}
	narrow := NewScheme("b")
	proj := b.Remapped(narrow, PadPerm(from, narrow))
	for i, tp := range tuples {
		if !proj.Tuple(i).Equal(tp.Project(narrow)) {
			t.Fatalf("row %d projection mismatch", i)
		}
	}
	// The view shares selection with its base.
	b.SetSel([]int32{4, 9})
	padded = b.Remapped(wide, PadPerm(from, wide))
	if padded.Len() != 2 || !padded.Tuple(1).Equal(tuples[9].PadTo(wide)) {
		t.Fatal("remapped view does not follow selection")
	}
	b.SetSel(nil)
}

func TestRelationAppendBatchAndSort(t *testing.T) {
	s := NewScheme("a", "b", "c")
	rng := rand.New(rand.NewSource(11))
	b := NewBatch(s)
	var want []Tuple
	for i := 0; i < 50; i++ {
		tp := randTuple(rng, s)
		want = append(want, tp)
		b.AppendTuple(tp)
	}
	r := New("r", s)
	r.AppendBatch(b)
	if r.Len() != len(want) {
		t.Fatalf("AppendBatch len=%d want %d", r.Len(), len(want))
	}
	for i, tp := range want {
		if !r.At(i).Equal(tp) {
			t.Fatalf("AppendBatch row %d mismatch", i)
		}
	}

	// SortByKey must order exactly like the naive per-tuple-Key sort.
	naive := r.Clone()
	naiveSorted := naive.Sorted()
	r.SortByKey()
	for i := 0; i < r.Len(); i++ {
		if r.At(i).Key() != naiveSorted.At(i).Key() {
			t.Fatalf("SortByKey row %d: %q vs naive %q", i, r.At(i).Key(), naiveSorted.At(i).Key())
		}
	}
}

func TestRelationColumnsCache(t *testing.T) {
	s := NewScheme("k")
	r := New("r", s)
	r.AddValues(value.Int(1))
	r.AddValues(value.Int(9))

	b := r.Columns()
	if b.Len() != 2 || !b.Value(1, 0).Equal(value.Int(9)) {
		t.Fatal("Columns content wrong")
	}
	if r.Columns() != b {
		t.Fatal("Columns not cached")
	}
	r.AddValues(value.Int(5))
	b2 := r.Columns()
	if b2 == b || b2.Len() != 3 {
		t.Fatal("Columns cache not invalidated by Add")
	}
	// SortByKey reorders without a version bump; the cache must notice.
	r.SortByKey()
	b3 := r.Columns()
	if b3 == b2 {
		t.Fatal("Columns cache not invalidated by SortByKey")
	}
	if !b3.Value(0, 0).Equal(r.At(0).At(0)) {
		t.Fatal("Columns stale after sort")
	}
}

func TestColVecMixedMigration(t *testing.T) {
	var c ColVec
	c.Append(value.Null)
	c.Append(value.Int(4))
	c.Append(value.Int(7))
	if k, ok := c.Kind(); !ok || k != value.KindInt {
		t.Fatalf("kind = %v, %v", k, ok)
	}
	c.Append(value.String("x")) // forces mixed migration
	if _, ok := c.Kind(); ok {
		t.Fatal("expected mixed column")
	}
	want := []value.Value{value.Null, value.Int(4), value.Int(7), value.String("x")}
	for i, w := range want {
		if !c.Value(i).Equal(w) {
			t.Fatalf("cell %d = %v want %v", i, c.Value(i), w)
		}
		if c.IsNull(i) != w.IsNull() {
			t.Fatalf("cell %d null flag wrong", i)
		}
	}
}
