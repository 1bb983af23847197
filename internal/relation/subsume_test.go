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

// Differential property: after any sequence of inserts and deletes
// the SubsumeSet holds exactly the reference front — RemoveSubsumed
// (and the O(n²) naive reference) over the previous front plus an
// inserted tuple, or the previous front minus a deleted live tuple,
// which promotes nothing.
func TestSubsumeSetMatchesBatchRandomized(t *testing.T) {
	s := NewScheme("a", "b", "c")
	rng := rand.New(rand.NewSource(193))
	for trial := 0; trial < 40; trial++ {
		set := NewSubsumeSet(s)
		front := New("front", s)
		steps := 10 + rng.Intn(30)
		for step := 0; step < steps; step++ {
			if front.Len() > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(front.Len())
				tp := front.At(i)
				if !set.Delete(tp) {
					t.Fatalf("trial %d step %d: delete of live tuple %v refused", trial, step, tp)
				}
				front = front.Filter(func(u Tuple) bool { return !u.Equal(tp) })
			} else {
				tp := randomNullableTuple(rng, s, 0.4)
				set.Insert(tp)
				all := front.Clone()
				all.Add(tp)
				front = RemoveSubsumed(all)
				if naive := RemoveSubsumedNaive(all.Distinct()); !front.EqualSet(naive) {
					t.Fatalf("trial %d step %d: batch and naive fronts differ", trial, step)
				}
			}
			if got := set.Len(); got != front.Len() {
				t.Fatalf("trial %d step %d: Len = %d, want %d", trial, step, got, front.Len())
			}
			if got, want := set.Rel("front").String(), front.Sorted().String(); got != want {
				t.Fatalf("trial %d step %d: incremental front differs from batch\ngot:\n%s\nwant:\n%s", trial, step, got, want)
			}
		}
	}
}

// sameSubsumeState reports the first difference between two sets'
// observable state: live entries in order (tuple values and kinds,
// key), and each group's entries under every one of its indexes.
func sameSubsumeState(got, want *SubsumeSet) error {
	if len(got.live) != len(want.live) {
		return fmt.Errorf("%d live entries, want %d", len(got.live), len(want.live))
	}
	for i, g := range got.live {
		w := want.live[i]
		if g.key != w.key {
			return fmt.Errorf("live[%d] = %v key %q, want %v key %q", i, g.t, g.key, w.t, w.key)
		}
		for c := 0; c < g.t.scheme.Arity(); c++ {
			if g.t.At(c).Kind() != w.t.At(c).Kind() || !g.t.At(c).Equal(w.t.At(c)) {
				return fmt.Errorf("live[%d] holds %v, want %v", i, g.t, w.t)
			}
		}
	}
	// Groups are compared by their live entries: maintenance may leave
	// empty groups behind, which hold nothing observable.
	for _, set := range []*SubsumeSet{got, want} {
		n := 0
		for _, g := range set.groups {
			own := countEntries(g.own)
			for _, ix := range g.sub {
				if countEntries(ix) != own {
					return fmt.Errorf("group %v: an index holds %d entries, its own index %d", g.positions, countEntries(ix), own)
				}
			}
			n += own
		}
		if n != len(set.live) {
			return fmt.Errorf("groups hold %d entries, live %d", n, len(set.live))
		}
	}
	for k, wg := range want.groups {
		if n := countEntries(wg.own); n > 0 && (got.groups[k] == nil || countEntries(got.groups[k].own) != n) {
			return fmt.Errorf("group %v does not hold %d entries", wg.positions, n)
		}
	}
	return nil
}

func countEntries(ix *ssSubIndex) int {
	n := 0
	for _, es := range ix.buckets {
		n += len(es)
	}
	return n
}

// insertEach is the reference the bulk constructor must match: Insert
// per tuple, in order.
func insertEach(s *Scheme, ts []Tuple) *SubsumeSet {
	set := NewSubsumeSet(s)
	for _, t := range ts {
		set.Insert(t)
	}
	return set
}

// The bulk constructor over a front matches per-tuple Insert of the
// same tuples entry for entry, on random fronts of every arity up to 6
// and past 64, including the lone all-null tuple and Int/Float values
// that compare Equal (the front's own tuple must be the one kept).
// Both sets then take the same random Insert/Delete sequence and must
// stay equal.
func TestNewSubsumeSetOfMatchesInsert(t *testing.T) {
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
		all := New("x", s)
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
			all.Add(tp)
		}
		if trial%7 == 0 {
			all.Add(AllNull(s))
		}
		front := RemoveSubsumed(all)
		if trial%13 == 0 {
			front = FromTuples("x", s, []Tuple{AllNull(s)})
		}
		bulk, ref := NewSubsumeSetOf(front), insertEach(s, front.Tuples())
		if err := sameSubsumeState(bulk, ref); err != nil {
			t.Fatalf("trial %d (arity %d, %d tuples): %v", trial, arity, front.Len(), err)
		}
		if got, want := bulk.Rel("x").String(), front.Sorted().String(); got != want {
			t.Fatalf("trial %d: render differs from the front:\n%s\nwant:\n%s", trial, got, want)
		}
		for step := 0; step < 20; step++ {
			tp := randomNullableTuple(rng, s, 0.4)
			if bulk.Len() > 0 && rng.Intn(2) == 0 {
				tp = bulk.live[rng.Intn(bulk.Len())].t
				if a, b := bulk.Delete(tp), ref.Delete(tp); !a || !b {
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

// Deleting a tuple that is not live must be refused, and a duplicate
// insert adds nothing for a second delete to remove.
func TestSubsumeSetDeleteUntracked(t *testing.T) {
	s := NewScheme("a")
	set := NewSubsumeSet(s)
	tp := NewTuple(s, value.Int(1))
	if set.Delete(tp) {
		t.Fatal("delete on empty set should report untracked")
	}
	if _, ok := set.Insert(tp); !ok {
		t.Fatal("first insert refused")
	}
	if _, ok := set.Insert(tp); ok {
		t.Fatal("duplicate insert admitted")
	}
	if !set.Delete(tp) {
		t.Fatal("delete of the live tuple refused")
	}
	if set.Delete(tp) {
		t.Fatal("second delete should report untracked")
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

// The all-null tuple is live exactly while it is alone: a non-null
// insert evicts it, and deleting that tuple promotes nothing, so it
// comes back only when inserted again.
func TestSubsumeSetAllNullLifecycle(t *testing.T) {
	s := NewScheme("a", "b")
	set := NewSubsumeSet(s)
	allNull := NewTuple(s, value.Null, value.Null)
	set.Insert(allNull)
	if got := set.Rel("x").Len(); got != 1 {
		t.Fatalf("lone all-null tuple not maximal: %d rows", got)
	}
	other := NewTuple(s, value.Int(1), value.Null)
	if d, ok := set.Insert(other); !ok || len(d) != 1 || !d[0].Equal(allNull) {
		t.Fatalf("non-null insert displaced %v (inserted %v), want the all-null tuple", d, ok)
	}
	if _, ok := set.Insert(allNull); ok {
		t.Fatal("all-null tuple admitted beside a non-null one")
	}
	if !set.Delete(other) {
		t.Fatal("delete refused")
	}
	if got := set.Len(); got != 0 {
		t.Fatalf("delete promoted %d tuples, want none", got)
	}
	if _, ok := set.Insert(allNull); !ok || set.Rel("x").Len() != 1 {
		t.Fatal("all-null tuple not admitted into the empty set")
	}
}

// Insert's pruning paths, which the spill replay's charges follow:
// exact duplicates are rejected without displacing, tuples subsumed on
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
	if d, ok := set.Insert(partial); !ok || len(d) != 0 {
		t.Fatalf("fresh insert: displaced=%v inserted=%v", d, ok)
	}

	// Exact duplicate: not inserted, nothing displaced, Len unchanged.
	if d, ok := set.Insert(tup(i(1), value.Null, value.Null)); ok || len(d) != 0 {
		t.Fatalf("duplicate insert: displaced=%v inserted=%v", d, ok)
	}
	if set.Len() != 1 {
		t.Fatalf("len after duplicate = %d, want 1", set.Len())
	}

	// A second incomparable partial, then a complete tuple subsuming
	// both: both must come back displaced (once each) and leave the set.
	other := tup(value.Null, i(2), value.Null)
	if _, ok := set.Insert(other); !ok {
		t.Fatal("incomparable partial rejected")
	}
	complete := tup(i(1), i(2), i(3))
	d, ok := set.Insert(complete)
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
	if d, ok := set.Insert(tup(i(1), value.Null, i(3))); ok || len(d) != 0 {
		t.Fatalf("subsumed arrival: displaced=%v inserted=%v", d, ok)
	}

	// The surviving front is exactly the complete tuple.
	front := set.Rel("r")
	if front.Len() != 1 || !front.Tuples()[0].Equal(complete) {
		t.Fatalf("front = %v, want just %v", front.Tuples(), complete)
	}
}
