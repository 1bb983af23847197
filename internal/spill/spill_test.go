package spill

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"clio/internal/budget"
	"clio/internal/relation"
	"clio/internal/value"
)

func testScheme() *relation.Scheme {
	return relation.NewScheme("R.a", "R.b", "R.c", "R.d", "R.e")
}

func mixedTuples(t *testing.T, n int) []relation.Tuple {
	t.Helper()
	s := testScheme()
	out := make([]relation.Tuple, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, relation.NewTuple(s,
			value.Int(int64(i%7-3)),
			value.String(string(rune('a'+i%5))+"payload"),
			value.Float(float64(i)*0.5-1),
			value.Bool(i%2 == 0),
			value.Null,
		))
	}
	return out
}

// Every value kind must survive the frame codec bit-exactly, including
// the edge values the canonical hashes normalize.
func TestTupleCodecRoundTrip(t *testing.T) {
	s := testScheme()
	cases := []relation.Tuple{
		relation.NewTuple(s, value.Null, value.Null, value.Null, value.Null, value.Null),
		relation.NewTuple(s, value.Int(0), value.String(""), value.Float(0), value.Bool(false), value.Bool(true)),
		relation.NewTuple(s, value.Int(-1<<62), value.String("héllo\x00world"), value.Float(-0.0), value.Null, value.Int(1<<62)),
	}
	for _, want := range cases {
		payload := AppendTuple(nil, want)
		got, err := DecodeTuple(payload, s)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !got.Equal(want) || got.Key() != want.Key() {
			t.Fatalf("round trip: got %v want %v", got, want)
		}
	}
}

// Malformed payloads must be refused, never misdecoded.
func TestDecodeTupleRejectsCorruption(t *testing.T) {
	s := testScheme()
	good := AppendTuple(nil, mixedTuples(t, 1)[0])
	cases := map[string][]byte{
		"truncated":      good[:len(good)-2],
		"trailing bytes": append(append([]byte{}, good...), 'n'),
		"unknown tag":    append([]byte{'z'}, good[1:]...),
		"empty":          {},
	}
	for name, payload := range cases {
		if _, err := DecodeTuple(payload, s); err == nil {
			t.Errorf("%s payload decoded without error", name)
		}
	}
}

// A partition round trip must return exactly the written multiset,
// with equal tuples colocated, and Close must remove the files and
// refund the spill charges.
func TestPartitionSetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir})
	ps := NewPartitionSet(tr, 4, nil)
	tuples := mixedTuples(t, 100)
	tuples = append(tuples, tuples[0]) // a duplicate must colocate
	for _, u := range tuples {
		if err := ps.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	if n := countTuples(t, ps); n != len(tuples) {
		t.Fatalf("partitions hold %d tuples, want %d", n, len(tuples))
	}
	if tr.SpillBytes() != ps.Bytes() || tr.SpillBytes() == 0 {
		t.Fatalf("tracker spill bytes %d, partition bytes %d", tr.SpillBytes(), ps.Bytes())
	}
	seen := map[string]int{}
	for i := 0; i < ps.N(); i++ {
		part := map[string]bool{}
		err := ps.Read(i, testScheme(), func(u relation.Tuple) error {
			seen[u.Key()]++
			part[u.Key()] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int{}
	for _, u := range tuples {
		want[u.Key()]++
	}
	if len(seen) != len(want) {
		t.Fatalf("distinct read back = %d, want %d", len(seen), len(want))
	}
	for k, n := range want {
		if seen[k] != n {
			t.Fatalf("tuple %q read %d times, want %d", k, seen[k], n)
		}
	}
	// The duplicate pair must be in one partition: find it via Index.
	if ps.Index(tuples[0]) != ps.Index(tuples[len(tuples)-1]) {
		t.Fatal("equal tuples routed to different partitions")
	}
	ps.Close()
	if tr.SpillBytes() != 0 {
		t.Fatalf("spill bytes after Close = %d, want 0", tr.SpillBytes())
	}
	left, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part"))
	if len(left) != 0 {
		t.Fatalf("files left after Close: %v", left)
	}
}

// With key columns set, tuples equal on the keys — including null keys
// — must share a partition.
func TestPartitionSetKeyRouting(t *testing.T) {
	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir})
	ps := NewPartitionSet(tr, 8, []int{0})
	defer ps.Close()
	s := testScheme()
	a := relation.NewTuple(s, value.Int(7), value.String("x"), value.Null, value.Null, value.Null)
	b := relation.NewTuple(s, value.Float(7), value.String("y"), value.Null, value.Null, value.Null)
	n1 := relation.NewTuple(s, value.Null, value.String("p"), value.Null, value.Null, value.Null)
	n2 := relation.NewTuple(s, value.Null, value.String("q"), value.Null, value.Null, value.Null)
	if ps.Index(a) != ps.Index(b) {
		t.Fatal("cross-kind equal keys (int 7, float 7) routed apart")
	}
	if ps.Index(n1) != ps.Index(n2) {
		t.Fatal("null keys routed apart")
	}
}

// The disk cap must abort with the typed budget error naming the spill
// limit and the disk_cap_exceeded state, and roll the charge back.
func TestBudgetSpillDiskCapAborts(t *testing.T) {
	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir, MaxSpillBytes: 16})
	ps := NewPartitionSet(tr, 2, nil)
	defer ps.Close()
	err := ps.Add(mixedTuples(t, 1)[0]) // one frame is well over 16 bytes
	var be *budget.Error
	if !errors.As(err, &be) {
		t.Fatalf("disk cap abort not a budget error: %v", err)
	}
	if be.Limit != "spill" || be.Spill != budget.SpillDiskCap {
		t.Fatalf("disk cap error = %+v, want limit spill, state disk_cap_exceeded", be)
	}
	if !errors.Is(err, budget.ErrExceeded) {
		t.Fatal("disk cap abort does not match ErrExceeded")
	}
	if tr.SpillBytes() != 0 {
		t.Fatalf("failed charge not rolled back: %d bytes", tr.SpillBytes())
	}
}

// SweepDir must remove exactly the orphaned partition files.
func TestSweepDirRemovesOrphans(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"clio-spill-111.part", "clio-spill-222.part"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keep := filepath.Join(dir, "unrelated.txt")
	if err := os.WriteFile(keep, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := SweepDir(dir)
	if err != nil || n != 2 {
		t.Fatalf("SweepDir = %d, %v; want 2, nil", n, err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatal("sweep removed an unrelated file")
	}
	if n, _ := SweepDir(dir); n != 0 {
		t.Fatalf("second sweep removed %d files, want 0", n)
	}
	if _, err := SweepDir(filepath.Join(dir, "missing")); err != nil {
		t.Fatalf("sweep of missing dir errored: %v", err)
	}
}

// A frame corrupted on disk must be refused at read time by the CRC,
// as a typed spill error.
func TestPartitionReadDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir})
	ps := NewPartitionSet(tr, 1, nil)
	defer ps.Close()
	if err := ps.Add(mixedTuples(t, 1)[0]); err != nil {
		t.Fatal(err)
	}
	// Flush by reading once, then flip a payload byte on disk.
	if err := ps.Read(0, testScheme(), func(relation.Tuple) error { return nil }); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part"))
	if len(files) != 1 {
		t.Fatalf("partition files = %v", files)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = ps.Read(0, testScheme(), func(relation.Tuple) error { return nil })
	if !errors.Is(err, ErrSpill) {
		t.Fatalf("corrupted frame read returned %v, want ErrSpill", err)
	}
}

// A frame header claiming more bytes than the partition holds must be
// refused before it sizes an allocation: the read fails with a typed
// read error and allocates far less than the claimed 256 MiB.
func TestPartitionReadRejectsOversizedFrameHeader(t *testing.T) {
	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir})
	ps := NewPartitionSet(tr, 1, nil)
	defer ps.Close()
	for _, u := range mixedTuples(t, 3) {
		if err := ps.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	// Flush by reading once, then make the first frame claim 256 MiB.
	if err := ps.Read(0, testScheme(), func(relation.Tuple) error { return nil }); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part"))
	if len(files) != 1 {
		t.Fatalf("partition files = %v", files)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[0:4], 256<<20)
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = ps.Read(0, testScheme(), func(relation.Tuple) error { return nil })
	runtime.ReadMemStats(&after)
	var ioe *IOError
	if !errors.As(err, &ioe) || ioe.Op != "read" {
		t.Fatalf("oversized frame header read returned %v, want IOError{Op: read}", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("the refused read allocated %d bytes, want under 1 MiB", n)
	}
}

// bigTuples builds n tuples whose frames total well over one bufio
// buffer (4096 bytes), so an abandoned read leaves a shared file
// descriptor mid-file rather than coincidentally at EOF.
func bigTuples(t *testing.T, n int) []relation.Tuple {
	t.Helper()
	s := testScheme()
	pad := strings.Repeat("x", 200)
	out := make([]relation.Tuple, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, relation.NewTuple(s,
			value.Int(int64(i)),
			value.String(pad),
			value.Float(float64(i)),
			value.Bool(i%2 == 0),
			value.Null,
		))
	}
	return out
}

// Writing to a partition after reading it — including after a read
// abandoned partway — must append at the correct offset. The pre-fix
// code read through the shared write descriptor, so an early-stopped
// read left the offset mid-file and the next flush overwrote live
// frames; this test fails against that code with a CRC mismatch.
func TestPartitionWriteAfterReadAppends(t *testing.T) {
	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir})
	ps := NewPartitionSet(tr, 1, nil)
	defer ps.Close()
	tuples := bigTuples(t, 30) // ~30 frames x ~230 bytes >> 4096
	for _, u := range tuples[:25] {
		if err := ps.AddTo(0, u); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon a read after the first tuple: the reader has pulled a
	// full buffer, far past the first frame.
	stop := errors.New("stop")
	err := ps.Read(0, testScheme(), func(relation.Tuple) error { return stop })
	if !errors.Is(err, stop) {
		t.Fatalf("early-stop read returned %v, want sentinel", err)
	}
	// Interleave more writes, then a full read once more.
	for _, u := range tuples[25:] {
		if err := ps.AddTo(0, u); err != nil {
			t.Fatal(err)
		}
	}
	var got []relation.Tuple
	if err := ps.Read(0, testScheme(), func(u relation.Tuple) error {
		got = append(got, u)
		return nil
	}); err != nil {
		t.Fatalf("full read after interleaved write: %v", err)
	}
	if len(got) != len(tuples) {
		t.Fatalf("read back %d tuples, want %d", len(got), len(tuples))
	}
	for i, u := range got {
		if !u.Equal(tuples[i]) {
			t.Fatalf("tuple %d corrupted: got %v want %v", i, u, tuples[i])
		}
	}
}

// Two concurrent-in-time reads of the same partition must each see the
// full write-order stream (reads hold independent descriptors).
func TestPartitionInterleavedReads(t *testing.T) {
	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir})
	ps := NewPartitionSet(tr, 1, nil)
	defer ps.Close()
	tuples := bigTuples(t, 20)
	for _, u := range tuples {
		if err := ps.AddTo(0, u); err != nil {
			t.Fatal(err)
		}
	}
	outer := 0
	err := ps.Read(0, testScheme(), func(relation.Tuple) error {
		outer++
		if outer == 1 { // a full nested read while the outer one is mid-stream
			inner := 0
			if err := ps.Read(0, testScheme(), func(relation.Tuple) error {
				inner++
				return nil
			}); err != nil {
				return err
			}
			if inner != len(tuples) {
				t.Fatalf("nested read saw %d tuples, want %d", inner, len(tuples))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if outer != len(tuples) {
		t.Fatalf("outer read saw %d tuples, want %d", outer, len(tuples))
	}
}

// A salted child must co-locate equal tuples while spreading a set
// that collided into one parent partition, and Repartition must
// preserve the multiset exactly.
func TestRepartitionSaltedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir})
	ps := NewPartitionSet(tr, 1, nil) // fan-out 1: everything collides
	defer ps.Close()
	tuples := mixedTuples(t, 64)
	tuples = append(tuples, tuples[3]) // duplicate must co-locate in the child
	for _, u := range tuples {
		if err := ps.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	child, err := ps.Repartition(0, testScheme(), 8, DepthSalt(1))
	if err != nil {
		t.Fatal(err)
	}
	defer child.Close()
	if child.Created() < 2 {
		t.Fatalf("salted re-split landed in %d partitions; salt failed to decorrelate", child.Created())
	}
	if n := countTuples(t, child); n != len(tuples) {
		t.Fatalf("child holds %d tuples, want %d", n, len(tuples))
	}
	got := map[string]int{}
	for i := 0; i < child.N(); i++ {
		if err := child.Read(i, testScheme(), func(u relation.Tuple) error {
			got[u.Key()]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int{}
	for _, u := range tuples {
		want[u.Key()]++
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("tuple %q: child read %d, want %d", k, got[k], n)
		}
	}
	if child.Index(tuples[3]) != child.Index(tuples[len(tuples)-1]) {
		t.Fatal("equal tuples routed apart under the child salt")
	}
	// Dropping the parent's only partition refunds exactly its bytes,
	// leaving the child's charged.
	ps.DropPart(0)
	if tr.SpillBytes() != child.Bytes() {
		t.Fatalf("after DropPart the tracker holds %d spill bytes, want the child's %d", tr.SpillBytes(), child.Bytes())
	}
	if err := ps.Read(0, testScheme(), func(relation.Tuple) error {
		t.Fatal("dropped partition delivered a tuple")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// Key-column routing must survive salting: tuples equal on the key —
// including cross-kind numerics and nulls — share a child partition at
// every depth.
func TestSaltedKeyRoutingColocates(t *testing.T) {
	s := testScheme()
	a := relation.NewTuple(s, value.Int(7), value.String("x"), value.Null, value.Null, value.Null)
	b := relation.NewTuple(s, value.Float(7), value.String("y"), value.Null, value.Null, value.Null)
	n1 := relation.NewTuple(s, value.Null, value.String("p"), value.Null, value.Null, value.Null)
	n2 := relation.NewTuple(s, value.Null, value.String("q"), value.Null, value.Null, value.Null)
	for d := 0; d <= 3; d++ {
		salt := DepthSalt(d)
		if Route(a, []int{0}, salt, 16) != Route(b, []int{0}, salt, 16) {
			t.Fatalf("depth %d: cross-kind equal keys routed apart", d)
		}
		if Route(n1, []int{0}, salt, 16) != Route(n2, []int{0}, salt, 16) {
			t.Fatalf("depth %d: null keys routed apart", d)
		}
	}
	// Distinct depths must produce distinct routings for at least some
	// tuples, or recursion could never split a stuck partition.
	moved := false
	for _, u := range mixedTuples(t, 32) {
		if Route(u, nil, DepthSalt(1), 16) != Route(u, nil, DepthSalt(2), 16) {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("DepthSalt(1) and DepthSalt(2) routed 32 tuples identically")
	}
}

// countTuples reads every partition of ps and returns the tuple count.
func countTuples(t *testing.T, ps *PartitionSet) int {
	t.Helper()
	n := 0
	for i := 0; i < ps.N(); i++ {
		if err := ps.Read(i, testScheme(), func(relation.Tuple) error {
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}
