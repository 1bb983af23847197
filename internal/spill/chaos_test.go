package spill

import (
	"errors"
	"path/filepath"
	"testing"

	"clio/internal/budget"
	"clio/internal/fault"
	"clio/internal/relation"
)

// Every spill I/O fault — create, write, read — must surface as a
// typed *IOError matching ErrSpill, with the failed frame's spill
// charge rolled back, and an exhausted fault point must leave the set
// usable again.

func TestChaosSpillCreateFaultTypedAbort(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	fault.Set("spill.create", fault.Spec{Mode: fault.ModeError, Times: 1})

	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir})
	ps := NewPartitionSet(tr, 1, nil)
	defer ps.Close()
	u := mixedTuples(t, 1)[0]
	err := ps.Add(u)
	var ioe *IOError
	if !errors.As(err, &ioe) || ioe.Op != "create" {
		t.Fatalf("create fault surfaced as %v, want IOError{Op: create}", err)
	}
	if !errors.Is(err, ErrSpill) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("create fault does not match the sentinels: %v", err)
	}
	if tr.SpillBytes() != 0 {
		t.Fatalf("failed create left %d spill bytes charged", tr.SpillBytes())
	}
	if err := ps.Add(u); err != nil {
		t.Fatalf("add after exhausted fault failed: %v", err)
	}
}

func TestChaosSpillWriteFaultRollsBackCharge(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	fault.Set("spill.write", fault.Spec{Mode: fault.ModeError, After: 3, Times: 1})

	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir})
	ps := NewPartitionSet(tr, 2, nil)
	defer ps.Close()
	tuples := mixedTuples(t, 10)
	var failed error
	written := 0
	for _, u := range tuples {
		if err := ps.Add(u); err != nil {
			failed = err
			break
		}
		written++
	}
	var ioe *IOError
	if !errors.As(failed, &ioe) || ioe.Op != "write" {
		t.Fatalf("write fault surfaced as %v, want IOError{Op: write}", failed)
	}
	if written != 3 {
		t.Fatalf("fault fired after %d writes, want 3 (After: 3)", written)
	}
	// The failed frame's charge must be rolled back: the tracker holds
	// exactly the bytes of the frames that succeeded.
	if tr.SpillBytes() != ps.Bytes() {
		t.Fatalf("tracker %d bytes, partitions %d", tr.SpillBytes(), ps.Bytes())
	}
	// The set stays readable: the successful prefix is intact.
	got := 0
	for i := 0; i < ps.N(); i++ {
		if err := ps.Read(i, testScheme(), func(relation.Tuple) error { got++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got != written {
		t.Fatalf("read back %d tuples, want the %d written", got, written)
	}
}

func TestChaosSpillReadFaultMidReplay(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()

	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir})
	ps := NewPartitionSet(tr, 1, nil)
	defer ps.Close()
	for _, u := range mixedTuples(t, 8) {
		if err := ps.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	fault.Set("spill.read", fault.Spec{Mode: fault.ModeError, After: 4, Times: 1})
	visited := 0
	err := ps.Read(0, testScheme(), func(relation.Tuple) error { visited++; return nil })
	var ioe *IOError
	if !errors.As(err, &ioe) || ioe.Op != "read" {
		t.Fatalf("read fault surfaced as %v, want IOError{Op: read}", err)
	}
	if visited != 4 {
		t.Fatalf("visited %d tuples before the fault, want 4", visited)
	}
	// Exhausted fault: a full replay succeeds.
	visited = 0
	if err := ps.Read(0, testScheme(), func(relation.Tuple) error { visited++; return nil }); err != nil {
		t.Fatal(err)
	}
	if visited != 8 {
		t.Fatalf("clean replay visited %d, want 8", visited)
	}
}

// Close after a mid-write fault must still remove every partition file
// and return the spill charges — a faulted spill never leaks disk.
func TestChaosSpillFaultThenCloseLeavesNoFiles(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	fault.Set("spill.write", fault.Spec{Mode: fault.ModeError, After: 2, Times: 1})

	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir})
	ps := NewPartitionSet(tr, 4, nil)
	for _, u := range mixedTuples(t, 10) {
		if err := ps.Add(u); err != nil {
			break
		}
	}
	ps.Close()
	if tr.SpillBytes() != 0 {
		t.Fatalf("spill bytes after Close = %d, want 0", tr.SpillBytes())
	}
	left, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part"))
	if len(left) != 0 {
		t.Fatalf("files left after faulted spill Close: %v", left)
	}
}

// A flush failure is a distinct failure stage and must carry its own
// op label — the pre-fix code mislabeled it "write", pointing
// operators at the wrong stage. Asserts the exact label.
func TestChaosSpillFlushFaultLabeledFlush(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()

	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir})
	ps := NewPartitionSet(tr, 1, nil)
	defer ps.Close()
	if err := ps.Add(mixedTuples(t, 1)[0]); err != nil {
		t.Fatal(err)
	}
	fault.Set("spill.flush", fault.Spec{Mode: fault.ModeError, Times: 1})
	err := ps.Read(0, testScheme(), func(relation.Tuple) error { return nil })
	var ioe *IOError
	if !errors.As(err, &ioe) {
		t.Fatalf("flush fault surfaced as %v, want *IOError", err)
	}
	if ioe.Op != "flush" {
		t.Fatalf("flush fault labeled %q, want \"flush\"", ioe.Op)
	}
	if !errors.Is(err, ErrSpill) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("flush fault does not match the sentinels: %v", err)
	}
	// Exhausted fault: the partition replays clean.
	if err := ps.Read(0, testScheme(), func(relation.Tuple) error { return nil }); err != nil {
		t.Fatalf("read after exhausted flush fault: %v", err)
	}
}

// A fault at the repartition point must surface as a typed
// IOError{Op: repartition}, leave the parent partition intact and
// readable, and charge nothing for the unborn child.
func TestChaosSpillRepartitionFaultTypedAbort(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()

	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir})
	ps := NewPartitionSet(tr, 1, nil)
	defer ps.Close()
	for _, u := range mixedTuples(t, 12) {
		if err := ps.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	parentBytes := tr.SpillBytes()
	fault.Set("spill.repartition", fault.Spec{Mode: fault.ModeError, Times: 1})
	child, err := ps.Repartition(0, testScheme(), 8, DepthSalt(1))
	var ioe *IOError
	if !errors.As(err, &ioe) || ioe.Op != "repartition" {
		t.Fatalf("repartition fault surfaced as %v, want IOError{Op: repartition}", err)
	}
	if child != nil {
		t.Fatal("faulted repartition returned a live child")
	}
	if tr.SpillBytes() != parentBytes {
		t.Fatalf("faulted repartition left %d bytes charged, want parent's %d", tr.SpillBytes(), parentBytes)
	}
	// The parent is untouched; a retry succeeds.
	child, err = ps.Repartition(0, testScheme(), 8, DepthSalt(1))
	if err != nil {
		t.Fatalf("repartition after exhausted fault: %v", err)
	}
	defer child.Close()
	if n := countTuples(t, child); n != 12 {
		t.Fatalf("retried child holds %d tuples, want 12", n)
	}
}

// A write fault while copying into the child must close the child —
// removing its files and refunding its charges — and leave the parent
// intact.
func TestChaosSpillRepartitionChildWriteFault(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()

	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir})
	ps := NewPartitionSet(tr, 1, nil)
	defer ps.Close()
	for _, u := range mixedTuples(t, 12) {
		if err := ps.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	parentBytes := tr.SpillBytes()
	parentFiles, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part"))
	fault.Set("spill.write", fault.Spec{Mode: fault.ModeError, After: 5, Times: 1})
	if _, err := ps.Repartition(0, testScheme(), 8, DepthSalt(1)); !errors.Is(err, ErrSpill) {
		t.Fatalf("child write fault surfaced as %v, want ErrSpill", err)
	}
	if tr.SpillBytes() != parentBytes {
		t.Fatalf("dead child left %d bytes charged, want parent's %d", tr.SpillBytes(), parentBytes)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part"))
	if len(after) != len(parentFiles) {
		t.Fatalf("dead child leaked files: %d on disk, want %d", len(after), len(parentFiles))
	}
}

// Recursive children share the partition file pattern, so the boot
// sweep reclaims them too: a kill -9 mid-recursion (simulated by
// simply not closing anything) leaves only files SweepDir removes.
func TestChaosSweepReclaimsRecursiveOrphans(t *testing.T) {
	dir := t.TempDir()
	tr := budget.NewTracker(budget.Budget{MaxBytes: 1, SpillDir: dir})
	ps := NewPartitionSet(tr, 2, nil)
	for _, u := range mixedTuples(t, 32) {
		if err := ps.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	child, err := ps.Repartition(0, testScheme(), 4, DepthSalt(1))
	if err != nil {
		t.Fatal(err)
	}
	grandchild, err := child.Repartition(child.firstCreated(t), testScheme(), 4, DepthSalt(2))
	if err != nil {
		t.Fatal(err)
	}
	_ = grandchild
	// No Close anywhere: this is the crash. Every generation's files
	// must match the sweep pattern.
	files, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part"))
	if len(files) < 3 {
		t.Fatalf("expected parent+child+grandchild files on disk, found %d", len(files))
	}
	n, err := SweepDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(files) {
		t.Fatalf("sweep removed %d of %d orphans", n, len(files))
	}
	left, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part"))
	if len(left) != 0 {
		t.Fatalf("orphans left after sweep: %v", left)
	}
}

// firstCreated returns the index of some partition that exists on
// disk (test helper; fan-out routing decides which indices fill).
func (ps *PartitionSet) firstCreated(t *testing.T) int {
	t.Helper()
	for i, p := range ps.parts {
		if p != nil {
			return i
		}
	}
	t.Fatal("no partition created")
	return -1
}
