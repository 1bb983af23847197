package relation

import (
	"fmt"
	"math/rand"
	"testing"

	"clio/internal/value"
)

// randomNullableTuple builds a tuple over s with each attribute null
// with probability pNull, values drawn from a tiny domain so tuples
// collide, subsume, and duplicate often.
func randomNullableTuple(rng *rand.Rand, s *Scheme, pNull float64) Tuple {
	vals := make([]value.Value, s.Arity())
	for i := range vals {
		if rng.Float64() < pNull {
			vals[i] = value.Null
		} else {
			vals[i] = value.Int(int64(rng.Intn(3)))
		}
	}
	return NewTuple(s, vals...)
}

// Differential property: after any sequence of inserts and deletes the
// SubsumeSet's maximal front equals RemoveSubsumed over the surviving
// multiset (and the O(n²) naive reference). Deletes remove previously
// inserted occurrences, so the multiset bookkeeping is exercised too.
func TestSubsumeSetMatchesBatchRandomized(t *testing.T) {
	s := NewScheme("a", "b", "c")
	rng := rand.New(rand.NewSource(193))
	for trial := 0; trial < 40; trial++ {
		set := NewSubsumeSet(s)
		var live []Tuple
		steps := 10 + rng.Intn(30)
		for step := 0; step < steps; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				tp := live[i]
				live = append(live[:i], live[i+1:]...)
				if !set.Delete(tp) {
					t.Fatalf("trial %d step %d: delete of live tuple %v refused", trial, step, tp)
				}
			} else {
				tp := randomNullableTuple(rng, s, 0.4)
				live = append(live, tp)
				set.Insert(tp)
			}
			batch := FromTuples("live", s, live)
			want := RemoveSubsumed(batch.Distinct())
			wantNaive := RemoveSubsumedNaive(batch.Distinct())
			if got, want := set.Len(), batch.Distinct().Len(); got != want {
				t.Fatalf("trial %d step %d: Len = %d, want %d distinct live tuples", trial, step, got, want)
			}
			// The one-pass build over the surviving multiset reaches the
			// state the Insert/Delete history reached.
			if err := sameSubsumeState(NewSubsumeSetFrom(s, live), set); err != nil {
				t.Fatalf("trial %d step %d: bulk build of the live multiset: %v", trial, step, err)
			}
			got := set.Rel("live")
			if !got.EqualSet(want) {
				t.Fatalf("trial %d step %d: incremental front differs from batch\nlive: %v\ngot:\n%v\nwant:\n%v",
					trial, step, live, got, want)
			}
			if !got.EqualSet(wantNaive) {
				t.Fatalf("trial %d step %d: incremental front differs from naive reference", trial, step)
			}
		}
		// InsertPruning keeps only the front resident, so Len counts
		// the distinct maximal tuples of everything inserted so far.
		pruned := NewSubsumeSet(s)
		var seen []Tuple
		for step := 0; step < steps; step++ {
			tp := randomNullableTuple(rng, s, 0.4)
			seen = append(seen, tp)
			pruned.InsertPruning(tp)
			want := RemoveSubsumed(FromTuples("seen", s, seen).Distinct())
			if pruned.Len() != want.Len() {
				t.Fatalf("trial %d pruning step %d: Len = %d, want %d", trial, step, pruned.Len(), want.Len())
			}
			if !pruned.Rel("seen").EqualSet(want) {
				t.Fatalf("trial %d pruning step %d: pruned front differs from batch", trial, step)
			}
		}
	}
}

// sameSubsumeState reports the first difference between two sets'
// observable state: live entries in order (tuple values and kinds,
// key, count, maximal flag), the non-null tally, and each group's
// entries under its full-tuple hash.
func sameSubsumeState(got, want *SubsumeSet) error {
	if len(got.live) != len(want.live) {
		return fmt.Errorf("%d live entries, want %d", len(got.live), len(want.live))
	}
	for i, g := range got.live {
		w := want.live[i]
		if g.key != w.key || g.count != w.count || g.maximal != w.maximal {
			return fmt.Errorf("live[%d] = %v key %q x%d maximal=%v, want %v key %q x%d maximal=%v",
				i, g.t, g.key, g.count, g.maximal, w.t, w.key, w.count, w.maximal)
		}
		for c := 0; c < g.t.scheme.Arity(); c++ {
			if g.t.At(c).Kind() != w.t.At(c).Kind() || !g.t.At(c).Equal(w.t.At(c)) {
				return fmt.Errorf("live[%d] holds %v, want %v", i, g.t, w.t)
			}
		}
	}
	if got.liveNonNull != want.liveNonNull {
		return fmt.Errorf("liveNonNull = %d, want %d", got.liveNonNull, want.liveNonNull)
	}
	// Groups are compared by their live entries: maintenance may leave
	// empty groups behind, which hold nothing observable.
	for k, wg := range want.groups {
		gg := got.groups[k]
		if gg == nil {
			if n := countEntries(wg); n > 0 {
				return fmt.Errorf("group %v missing, want %d entries", wg.positions, n)
			}
			continue
		}
		if n := countEntries(wg); countEntries(gg) != n {
			return fmt.Errorf("group %v holds %d entries, want %d", wg.positions, countEntries(gg), n)
		}
		for h, wes := range wg.entries {
			if len(gg.entries[h]) != len(wes) {
				return fmt.Errorf("group %v: bucket %x has %d entries, want %d", wg.positions, h, len(gg.entries[h]), len(wes))
			}
		}
	}
	for k, gg := range got.groups {
		if wg := want.groups[k]; countEntries(gg) > 0 && wg == nil {
			return fmt.Errorf("extra group %v", gg.positions)
		}
		own := 0
		for _, es := range gg.sub[k].buckets {
			own += len(es)
		}
		if own != countEntries(gg) {
			return fmt.Errorf("group %v: own index holds %d entries, want %d", gg.positions, own, countEntries(gg))
		}
	}
	return nil
}

func countEntries(g *ssGroup) int {
	n := 0
	for _, es := range g.entries {
		n += len(es)
	}
	return n
}

// insertEach is the reference the one-pass build must match: Insert
// per tuple, in order.
func insertEach(s *Scheme, ts []Tuple) *SubsumeSet {
	set := NewSubsumeSet(s)
	for _, t := range ts {
		set.Insert(t)
	}
	return set
}

// The one-pass build matches per-tuple Insert entry for entry on
// random multisets of every arity up to 6 and past 64 (the per-tuple
// fallback), including duplicates, the all-null tuple, and Int/Float
// values that compare Equal (the first occurrence must be the one
// kept). Both sets then take the same random Insert/Delete sequence
// and must stay equal.
func TestNewSubsumeSetFromMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		arity := 1 + trial%6
		if trial == 59 {
			arity = 65
		}
		names := make([]string, arity)
		for i := range names {
			names[i] = fmt.Sprintf("a%d", i)
		}
		s := NewScheme(names...)
		var ts []Tuple
		for i, n := 0, rng.Intn(40); i < n; i++ {
			tp := randomNullableTuple(rng, s, []float64{0.1, 0.4, 0.8}[trial%3])
			if rng.Intn(5) == 0 {
				vals := make([]value.Value, arity)
				for c := range vals {
					if v := tp.At(c); !v.IsNull() {
						vals[c] = value.Float(float64(v.IntVal()))
					}
				}
				tp = NewTuple(s, vals...)
			}
			ts = append(ts, tp)
			if rng.Intn(4) == 0 {
				ts = append(ts, ts[rng.Intn(len(ts))])
			}
		}
		if trial%7 == 0 {
			ts = append(ts, AllNull(s))
		}
		bulk, ref := NewSubsumeSetFrom(s, ts), insertEach(s, ts)
		if err := sameSubsumeState(bulk, ref); err != nil {
			t.Fatalf("trial %d (arity %d, %d tuples): %v", trial, arity, len(ts), err)
		}
		if got, want := bulk.Rel("x").String(), RemoveSubsumed(FromTuples("x", s, ts)).Sorted().String(); got != want {
			t.Fatalf("trial %d: front differs from RemoveSubsumed:\n%s\nwant:\n%s", trial, got, want)
		}
		for step := 0; step < 20; step++ {
			tp := randomNullableTuple(rng, s, 0.4)
			if len(ts) > 0 && rng.Intn(2) == 0 {
				tp = ts[rng.Intn(len(ts))]
				if a, b := bulk.Delete(tp), ref.Delete(tp); a != b {
					t.Fatalf("trial %d step %d: Delete(%v) = %v on the bulk set, %v on the reference", trial, step, tp, a, b)
				}
			} else {
				bulk.Insert(tp)
				ref.Insert(tp)
			}
			if err := sameSubsumeState(bulk, ref); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

// Deleting a tuple that was never inserted (or already fully removed)
// must be refused, not silently diverge.
func TestSubsumeSetDeleteUntracked(t *testing.T) {
	s := NewScheme("a")
	set := NewSubsumeSet(s)
	tp := NewTuple(s, value.Int(1))
	if set.Delete(tp) {
		t.Fatal("delete on empty set should report untracked")
	}
	set.Insert(tp)
	set.Insert(tp)
	if !set.Delete(tp) || !set.Delete(tp) {
		t.Fatal("two inserts must admit two deletes")
	}
	if set.Delete(tp) {
		t.Fatal("third delete should report untracked")
	}
	if got := set.Rel("x").Len(); got != 0 {
		t.Fatalf("emptied set renders %d rows", got)
	}
}

// The rendered relation must be canonical: identical content reached
// through different insert/delete histories renders byte-identically.
func TestSubsumeSetRenderIsHistoryIndependent(t *testing.T) {
	s := NewScheme("a", "b")
	rng := rand.New(rand.NewSource(7))
	tuples := make([]Tuple, 8)
	for i := range tuples {
		tuples[i] = randomNullableTuple(rng, s, 0.3)
	}
	// History 1: straight inserts. History 2: inserts in reverse with
	// noise tuples added and removed along the way.
	a := NewSubsumeSet(s)
	for _, tp := range tuples {
		a.Insert(tp)
	}
	b := NewSubsumeSet(s)
	noise := NewTuple(s, value.Int(9), value.Int(9))
	for i := len(tuples) - 1; i >= 0; i-- {
		b.Insert(noise)
		b.Insert(tuples[i])
		if !b.Delete(noise) {
			t.Fatal("noise delete refused")
		}
	}
	ra, rb := a.Rel("x"), b.Rel("x")
	if fmt.Sprint(ra) != fmt.Sprint(rb) {
		t.Fatalf("render depends on history:\n%v\nvs\n%v", ra, rb)
	}
}

// The all-null tuple is maximal exactly while it is alone, and must be
// re-promoted when the last non-null tuple is deleted.
func TestSubsumeSetAllNullLifecycle(t *testing.T) {
	s := NewScheme("a", "b")
	set := NewSubsumeSet(s)
	allNull := NewTuple(s, value.Null, value.Null)
	set.Insert(allNull)
	if got := set.Rel("x").Len(); got != 1 {
		t.Fatalf("lone all-null tuple not maximal: %d rows", got)
	}
	other := NewTuple(s, value.Int(1), value.Null)
	set.Insert(other)
	if got := set.Rel("x"); got.Len() != 1 || got.At(0).Get("a").IsNull() {
		t.Fatalf("all-null tuple not demoted by non-null insert:\n%v", got)
	}
	if !set.Delete(other) {
		t.Fatal("delete refused")
	}
	if got := set.Rel("x").Len(); got != 1 {
		t.Fatalf("all-null tuple not re-promoted after delete: %d rows", got)
	}
}

// InsertPruning unit coverage for the three spill-replay paths: exact
// duplicates bump the count without displacing, tuples subsumed on
// arrival are rejected, and an arriving tuple evicts every live entry
// it subsumes — returning each exactly once so the caller can refund
// its budget charges.
func TestSubsumeSetInsertPruningPaths(t *testing.T) {
	s := NewScheme("a", "b", "c")
	tup := func(vs ...value.Value) Tuple { return NewTuple(s, vs...) }
	i := func(n int64) value.Value { return value.Int(n) }

	set := NewSubsumeSet(s)

	// Fresh maximal tuple: inserted, nothing displaced.
	partial := tup(i(1), value.Null, value.Null)
	if d, ok := set.InsertPruning(partial); !ok || len(d) != 0 {
		t.Fatalf("fresh insert: displaced=%v inserted=%v", d, ok)
	}

	// Exact duplicate: not inserted, nothing displaced, Len unchanged.
	if d, ok := set.InsertPruning(tup(i(1), value.Null, value.Null)); ok || len(d) != 0 {
		t.Fatalf("duplicate insert: displaced=%v inserted=%v", d, ok)
	}
	if set.Len() != 1 {
		t.Fatalf("len after duplicate = %d, want 1", set.Len())
	}

	// A second incomparable partial, then a complete tuple subsuming
	// both: both must come back displaced (once each) and leave the set.
	other := tup(value.Null, i(2), value.Null)
	if _, ok := set.InsertPruning(other); !ok {
		t.Fatal("incomparable partial rejected")
	}
	complete := tup(i(1), i(2), i(3))
	d, ok := set.InsertPruning(complete)
	if !ok || len(d) != 2 {
		t.Fatalf("subsuming insert: displaced=%d inserted=%v, want 2 displaced", len(d), ok)
	}
	seen := map[string]bool{}
	for _, v := range d {
		seen[v.Key()] = true
	}
	if !seen[partial.Key()] || !seen[other.Key()] {
		t.Fatalf("displaced set %v missing a victim", d)
	}
	if set.Len() != 1 {
		t.Fatalf("len after eviction = %d, want 1", set.Len())
	}

	// Subsumed on arrival: rejected with no displacement, even though
	// the arriving tuple is novel.
	if d, ok := set.InsertPruning(tup(i(1), value.Null, i(3))); ok || len(d) != 0 {
		t.Fatalf("subsumed arrival: displaced=%v inserted=%v", d, ok)
	}

	// The surviving front is exactly the complete tuple.
	front := set.Rel("r")
	if front.Len() != 1 || !front.Tuples()[0].Equal(complete) {
		t.Fatalf("front = %v, want just %v", front.Tuples(), complete)
	}
}

// decodeBulkCase turns fuzz bytes into a scheme, a multiset, and an
// Insert/Delete tail. data[0] picks the arity (1–5, or 65 when it is
// 0xff) and data[1] the multiset size; then each tuple takes one byte
// per attribute (b%4: 0 is NULL, else Int(b%4-1)), so duplicates and
// the all-null tuple arise often. Each remaining op is one byte (even:
// Insert, odd: Delete) followed by a tuple.
func decodeBulkCase(data []byte) (s *Scheme, ts []Tuple, ops []Tuple, dels []bool) {
	if len(data) < 2 {
		return nil, nil, nil, nil
	}
	arity := int(data[0])%5 + 1
	if data[0] == 0xff {
		arity = 65
	}
	names := make([]string, arity)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	s = NewScheme(names...)
	n := int(data[1]) % 48
	data = data[2:]
	next := func() (Tuple, bool) {
		if len(data) < arity {
			return Tuple{}, false
		}
		vals := make([]value.Value, arity)
		for c := range vals {
			if b := data[c] % 4; b != 0 {
				vals[c] = value.Int(int64(b - 1))
			}
		}
		data = data[arity:]
		return NewTuple(s, vals...), true
	}
	for i := 0; i < n; i++ {
		tp, ok := next()
		if !ok {
			break
		}
		ts = append(ts, tp)
	}
	for len(data) > 0 {
		del := data[0]%2 == 1
		data = data[1:]
		tp, ok := next()
		if !ok {
			break
		}
		ops = append(ops, tp)
		dels = append(dels, del)
	}
	return s, ts, ops, dels
}

// encodeBulkCase is decodeBulkCase's inverse for seeding: cells are -1
// for NULL or 0–2.
func encodeBulkCase(arity int, tuples [][]int, ops [][]int, dels []bool) []byte {
	a := byte(arity - 1)
	if arity == 65 {
		a = 0xff
	}
	out := []byte{a, byte(len(tuples))}
	cell := func(v int) byte { return byte(v + 1) }
	for _, tp := range tuples {
		for _, v := range tp {
			out = append(out, cell(v))
		}
	}
	for i, tp := range ops {
		op := byte(0)
		if dels[i] {
			op = 1
		}
		out = append(out, op)
		for _, v := range tp {
			out = append(out, cell(v))
		}
	}
	return out
}

// FuzzSubsumeSetBulk checks the one-pass build against per-tuple
// Insert on decoded multisets — entries, counts, flags and Rel() keys
// — then applies the decoded Insert/Delete tail to both and checks
// again. The seeds (the fixtures above plus one arity-65 case) run
// under plain `go test`.
func FuzzSubsumeSetBulk(f *testing.F) {
	const N = -1
	// TestSubsumeSetAllNullLifecycle: the lone all-null tuple, then a
	// non-null arrival and its delete.
	f.Add(encodeBulkCase(2, [][]int{{N, N}}, [][]int{{1, N}, {1, N}}, []bool{false, true}))
	// TestSubsumeSetInsertPruningPaths: a duplicate partial, an
	// incomparable partial, and a complete tuple subsuming both.
	f.Add(encodeBulkCase(3, [][]int{{1, N, N}, {1, N, N}, {N, 2, N}, {1, 2, 0}, {1, N, 0}},
		[][]int{{1, 2, 0}, {1, N, N}}, []bool{true, true}))
	// TestSubsumeSetDeleteUntracked: two inserts admit two deletes, not
	// three.
	f.Add(encodeBulkCase(1, [][]int{{1}, {1}}, [][]int{{1}, {1}, {1}}, []bool{true, true, true}))
	// TestSubsumeSetRenderIsHistoryIndependent: noise inserted and
	// removed around a null-bearing multiset.
	f.Add(encodeBulkCase(2, [][]int{{0, N}, {0, 1}, {N, 1}, {2, 2}, {N, N}, {0, 1}},
		[][]int{{2, 2}, {0, 1}, {0, 1}, {0, N}}, []bool{false, true, true, true}))
	// Wider than 64 attributes: the per-tuple fallback.
	wide := func(v int) []int {
		tp := make([]int, 65)
		for i := range tp {
			tp[i] = N
		}
		tp[0], tp[64] = v, 2-v
		return tp
	}
	allNull := wide(0)
	allNull[0], allNull[64] = N, N
	f.Add(encodeBulkCase(65, [][]int{wide(0), wide(1), wide(0), allNull}, [][]int{wide(0), wide(1)}, []bool{true, true}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ts, ops, dels := decodeBulkCase(data)
		if s == nil {
			return
		}
		bulk, ref := NewSubsumeSetFrom(s, ts), insertEach(s, ts)
		check := func(when string) {
			if err := sameSubsumeState(bulk, ref); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			a, b := bulk.Rel("x"), ref.Rel("x")
			for i := 0; i < a.Len() || i < b.Len(); i++ {
				if i >= a.Len() || i >= b.Len() || a.At(i).Key() != b.At(i).Key() {
					t.Fatalf("%s: Rel differs at row %d:\n%v\nwant:\n%v", when, i, a, b)
				}
			}
		}
		check("bulk build")
		for i, tp := range ops {
			if dels[i] {
				if x, y := bulk.Delete(tp), ref.Delete(tp); x != y {
					t.Fatalf("op %d: Delete(%v) = %v, reference %v", i, tp, x, y)
				}
			} else {
				bulk.Insert(tp)
				ref.Insert(tp)
			}
		}
		check("after the tail")
	})
}
