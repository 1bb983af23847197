package workspace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"clio/internal/fault"
	"clio/internal/obs"
)

func opRec(op, args string) JournalRecord {
	r := JournalRecord{Kind: "op", Op: op}
	if args != "" {
		r.Args = json.RawMessage(args)
	}
	return r
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := OpenJournal(dir, "s1", JournalOptions{})
	want := []JournalRecord{
		{Kind: "create", Args: json.RawMessage(`{"name":"m"}`)},
		opRec("corr", `{"spec":"Children.ID -> Kids.ID"}`),
		opRec("walk", `{"from":"Children","to":"PhoneDir"}`),
	}
	for _, r := range want {
		j.Append(r)
	}
	j.Close()

	recs, corrupt, err := ReadJournal(JournalPath(dir, "s1"))
	if err != nil || corrupt != 0 {
		t.Fatalf("ReadJournal: corrupt=%d err=%v", corrupt, err)
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i].Kind != want[i].Kind || recs[i].Op != want[i].Op || string(recs[i].Args) != string(want[i].Args) {
			t.Errorf("record %d: got %+v want %+v", i, recs[i], want[i])
		}
	}

	ids, err := JournalFiles(dir)
	if err != nil || len(ids) != 1 || ids[0] != "s1" {
		t.Fatalf("JournalFiles = %v, %v", ids, err)
	}
}

// A torn tail (crash mid-append) and mid-file corruption are skipped
// with a count; every intact record survives.
func TestJournalCorruptionSkipped(t *testing.T) {
	dir := t.TempDir()
	j := OpenJournal(dir, "s1", JournalOptions{})
	for i := 0; i < 4; i++ {
		j.Append(opRec("walk", `{"n":`+string(rune('0'+i))+`}`))
	}
	j.Close()
	path := JournalPath(dir, "s1")

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second line (CRC mismatch) and truncate
	// the final line mid-record (torn append).
	lines := 0
	for i, b := range data {
		if b == '\n' {
			lines++
			if lines == 1 {
				data[i+10] ^= 0xff
			}
		}
	}
	data = data[:len(data)-7]
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, corrupt, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 2 {
		t.Errorf("corrupt = %d, want 2 (one CRC mismatch, one torn tail)", corrupt)
	}
	if len(recs) != 2 {
		t.Fatalf("surviving records = %d, want 2", len(recs))
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	recs, corrupt, err := ReadJournal(filepath.Join(t.TempDir(), "nope.journal"))
	if err != nil || corrupt != 0 || len(recs) != 0 {
		t.Fatalf("missing file: recs=%v corrupt=%d err=%v", recs, corrupt, err)
	}
}

// Transient write failures are retried; persistent ones degrade the
// journal to memory-only (gauge up, later appends no-ops) instead of
// failing the session.
func TestJournalRetryAndDegrade(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	gauge := obs.GetGauge("clio.journal.degraded")
	opts := JournalOptions{retryAttempts: 3, retryBase: time.Microsecond}

	fault.Enable(7)
	defer fault.Disable()

	// Two failures, then success: the append must survive via retries.
	dir := t.TempDir()
	fault.Set("journal.append", fault.Spec{Mode: fault.ModeError, Times: 2})
	j := OpenJournal(dir, "s1", opts)
	j.Append(opRec("walk", `{"w":1}`))
	if j.Degraded() {
		t.Fatal("journal degraded despite retries succeeding")
	}
	j.Close()
	if recs, _, _ := ReadJournal(JournalPath(dir, "s1")); len(recs) != 1 {
		t.Fatalf("retried append not on disk: %d records", len(recs))
	}

	// Persistent failure: degrade, raise the gauge, keep serving.
	fault.Set("journal.append", fault.Spec{Mode: fault.ModeError})
	before := gauge.Value()
	j2 := OpenJournal(dir, "s2", opts)
	j2.Append(opRec("walk", `{"w":1}`))
	if !j2.Degraded() {
		t.Fatal("journal not degraded after persistent write failure")
	}
	if gauge.Value() != before+1 {
		t.Errorf("clio.journal.degraded = %d, want %d", gauge.Value(), before+1)
	}
	j2.Append(opRec("walk", `{"w":2}`)) // must be a silent no-op
	j2.Remove()
	if gauge.Value() != before {
		t.Errorf("gauge not released on Remove: %d, want %d", gauge.Value(), before)
	}
}

// Resuming after a crash rewrites the file from the surviving
// records, so a torn tail disappears and appends continue cleanly.
func TestJournalResumeRewritesCleanTail(t *testing.T) {
	dir := t.TempDir()
	j := OpenJournal(dir, "s1", JournalOptions{})
	j.Append(JournalRecord{Kind: "create"})
	j.Append(opRec("walk", `{"w":1}`))
	j.Close()
	path := JournalPath(dir, "s1")

	data, _ := os.ReadFile(path)
	data = append(data, []byte(`{"crc":1,"rec":{"kind":"op","op`)...) // torn append
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, corrupt, err := ReadJournal(path)
	if err != nil || corrupt != 1 || len(recs) != 2 {
		t.Fatalf("pre-resume read: recs=%d corrupt=%d err=%v", len(recs), corrupt, err)
	}

	j2 := ResumeJournal(dir, "s1", recs, JournalOptions{})
	j2.Append(opRec("chase", `{"c":1}`))
	j2.Close()

	recs2, corrupt2, err := ReadJournal(path)
	if err != nil || corrupt2 != 0 {
		t.Fatalf("post-resume read: corrupt=%d err=%v", corrupt2, err)
	}
	ops := make([]string, len(recs2))
	for i, r := range recs2 {
		ops[i] = r.Op
	}
	if len(recs2) != 3 || recs2[0].Kind != "create" || ops[1] != "walk" || ops[2] != "chase" {
		t.Fatalf("post-resume records wrong: %v", ops)
	}
}

func TestJournalFsyncPolicy(t *testing.T) {
	dir := t.TempDir()
	j := OpenJournal(dir, "s1", JournalOptions{FsyncEvery: 3})
	for i := 0; i < 7; i++ {
		j.Append(opRec("walk", `{"w":1}`))
	}
	j.Close() // final sync covers the unsynced tail
	if recs, corrupt, err := ReadJournal(JournalPath(dir, "s1")); err != nil || corrupt != 0 || len(recs) != 7 {
		t.Fatalf("recs=%d corrupt=%d err=%v", len(recs), corrupt, err)
	}
}

func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	j.Append(opRec("walk", "{}"))
	j.Close()
	j.Remove()
	if !j.Degraded() {
		t.Error("nil journal should report degraded (nothing is durable)")
	}
	if j.Path() != "" {
		t.Error("nil journal has a path")
	}
}

// A snapshot rewrites the journal to [create, snapshot], so replay
// cost is bounded by ops since the last snapshot: with interval k the
// file never holds more than k+1 records once the owner snapshots on
// SnapshotDue.
func TestJournalSnapshotBoundsRecords(t *testing.T) {
	dir := t.TempDir()
	const k = 4
	j := OpenJournal(dir, "s1", JournalOptions{SnapshotEvery: k})
	j.Append(JournalRecord{Kind: "create", Args: json.RawMessage(`{"name":"m"}`)})
	for i := 0; i < 4*k; i++ {
		j.Append(opRec("walk", `{"n":1}`))
		if j.SnapshotDue() {
			if !j.Snapshot(json.RawMessage(`{"state":"s"}`)) {
				t.Fatal("Snapshot failed with no fault armed")
			}
		}
		if n := j.Records(); n > k+1 {
			t.Fatalf("journal holds %d records after op %d, want <= %d", n, i+1, k+1)
		}
	}
	j.Close()

	recs, corrupt, err := ReadJournal(JournalPath(dir, "s1"))
	if err != nil || corrupt != 0 {
		t.Fatalf("ReadJournal: corrupt=%d err=%v", corrupt, err)
	}
	if len(recs) > k+1 {
		t.Fatalf("on-disk journal has %d records, want <= %d", len(recs), k+1)
	}
	if recs[0].Kind != "create" || recs[1].Kind != "snapshot" {
		t.Fatalf("journal shape after snapshots: %q, %q; want create, snapshot", recs[0].Kind, recs[1].Kind)
	}
	if string(recs[1].Args) != `{"state":"s"}` {
		t.Fatalf("snapshot args %s, want {\"state\":\"s\"}", recs[1].Args)
	}

	// Resuming over a snapshot keeps counting ops since that snapshot.
	j2 := ResumeJournal(dir, "s1", recs, JournalOptions{SnapshotEvery: k})
	defer j2.Close()
	if j2.SnapshotDue() {
		t.Error("fresh resume over a snapshot must not be immediately due")
	}
	for i := 0; i < k; i++ {
		j2.Append(opRec("walk", `{"n":2}`))
	}
	if !j2.SnapshotDue() {
		t.Error("after k more ops a snapshot must be due again")
	}
}

// An injected fault at the snapshot write point must skip the
// snapshot, not corrupt or truncate the journal: every op record is
// still there and the journal keeps accepting appends.
func TestJournalSnapshotFaultKeepsRecords(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	fault.Set("journal.snapshot", fault.Spec{Mode: fault.ModeError})

	dir := t.TempDir()
	const k = 3
	j := OpenJournal(dir, "s1", JournalOptions{SnapshotEvery: k})
	j.Append(JournalRecord{Kind: "create"})
	for i := 0; i < 3*k; i++ {
		j.Append(opRec("walk", `{"n":1}`))
		if j.SnapshotDue() {
			if j.Snapshot(json.RawMessage(`{}`)) {
				t.Fatal("Snapshot succeeded despite injected fault")
			}
		}
	}
	j.Close()
	recs, corrupt, err := ReadJournal(JournalPath(dir, "s1"))
	if err != nil || corrupt != 0 {
		t.Fatalf("ReadJournal: corrupt=%d err=%v", corrupt, err)
	}
	if want := 1 + 3*k; len(recs) != want {
		t.Fatalf("failed snapshots altered the journal: %d records, want %d", len(recs), want)
	}
}

// Archiving moves a journal out of the live directory (and the boot
// replay scan) into the archive; unarchiving moves it back intact. An
// injected fault at "journal.archive" fails the move and leaves the
// live file untouched.
func TestJournalArchiveMoveAndFault(t *testing.T) {
	dir := t.TempDir()
	archive := filepath.Join(dir, "archive")
	j := OpenJournal(dir, "s1", JournalOptions{})
	j.Append(JournalRecord{Kind: "create"})
	j.Append(opRec("walk", `{"n":1}`))
	j.Close()

	fault.Enable(1)
	fault.Set("journal.archive", fault.Spec{Mode: fault.ModeError, Times: 1})
	if err := ArchiveJournal(dir, archive, "s1"); err == nil {
		t.Fatal("ArchiveJournal succeeded despite injected fault")
	}
	fault.Disable()
	if _, err := os.Stat(JournalPath(dir, "s1")); err != nil {
		t.Fatalf("failed archive move lost the live journal: %v", err)
	}

	if err := ArchiveJournal(dir, archive, "s1"); err != nil {
		t.Fatalf("ArchiveJournal: %v", err)
	}
	if ids, _ := JournalFiles(dir); len(ids) != 0 {
		t.Fatalf("live dir still lists %v after archive", ids)
	}
	ids, err := JournalFiles(archive)
	if err != nil || len(ids) != 1 || ids[0] != "s1" {
		t.Fatalf("archive lists %v, %v; want [s1]", ids, err)
	}

	if err := UnarchiveJournal(archive, dir, "s1"); err != nil {
		t.Fatalf("UnarchiveJournal: %v", err)
	}
	recs, corrupt, err := ReadJournal(JournalPath(dir, "s1"))
	if err != nil || corrupt != 0 || len(recs) != 2 {
		t.Fatalf("unarchived journal: records=%d corrupt=%d err=%v", len(recs), corrupt, err)
	}
}
