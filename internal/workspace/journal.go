package workspace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"clio/internal/fault"
	"clio/internal/obs"
)

// Crash-safe sessions: every state-changing operation a serving layer
// applies to a Tool is appended to a per-session write-ahead journal
// before the result is acknowledged. On restart the serving layer
// replays each journal through the same operation dispatcher,
// restoring every session exactly as it was.
//
// The journal is newline-delimited JSON; each line frames one record
// with a CRC32 (IEEE) of the record's canonical JSON bytes:
//
//	{"crc":3735928559,"rec":{"kind":"op","op":"walk","args":{...}}}
//
// A torn or corrupt line (a crash mid-append, disk corruption) fails
// either JSON decoding or the CRC check; readers count and skip such
// lines instead of crashing, and resuming rewrites the file from the
// surviving records so the tail is clean again.
//
// Journaling must never take a session down: every write retries with
// capped, deterministically-jittered exponential backoff, and on
// persistent failure the journal degrades to memory-only — the
// session keeps serving, the clio.journal.degraded gauge rises, and a
// warning names the session.
//
// The journal's only compaction is the snapshot: the owner serializes
// its state and Snapshot rewrites the file to [create, snapshot].

// Journal instrumentation.
var (
	cJournalAppends   = obs.GetCounter("clio.journal.appends")
	cJournalRetries   = obs.GetCounter("clio.journal.retries")
	cJournalCorrupt   = obs.GetCounter("clio.journal.corrupt_records")
	cJournalSnapshots = obs.GetCounter("clio.journal.snapshots")
	cJournalArchived  = obs.GetCounter("clio.journal.archived")
	gJournalDegraded  = obs.GetGauge("clio.journal.degraded")
	// hJournalAppendNS times one successful append, write and fsync
	// together; hJournalFsyncNS one fsync; hJournalSnapshotBytes is the
	// payload of each snapshot that took effect.
	hJournalAppendNS      = obs.GetHistogram("clio.journal.append.ns")
	hJournalFsyncNS       = obs.GetHistogram("clio.journal.fsync.ns")
	hJournalSnapshotBytes = obs.GetHistogram("clio.journal.snapshot.bytes")
)

// JournalRecord is one durable entry: a session's creation parameters
// (kind "create"), one successful state-changing operation (kind
// "op"), or a full state snapshot (kind "snapshot") that supersedes
// every op before it. Args preserves the operation's arguments
// verbatim, so replay re-executes exactly what the client sent; for a
// snapshot it carries the owner's serialized canonical state.
type JournalRecord struct {
	Kind string          `json:"kind"`
	Op   string          `json:"op,omitempty"`
	Args json.RawMessage `json:"args,omitempty"`
}

// journalLine is the on-disk framing of one record.
type journalLine struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// JournalOptions tunes durability and compaction.
type JournalOptions struct {
	// FsyncEvery fsyncs after every Nth append (1 = every append,
	// the default; larger trades durability of the last N-1 ops for
	// throughput).
	FsyncEvery int
	// SnapshotEvery arms compaction: once SnapshotDue reports true
	// (every Nth op record since the last snapshot), the owner is
	// expected to call Snapshot with its serialized state, which
	// rewrites the journal to [create, snapshot] so the file holds
	// at most N+1 records. Zero or negative disables.
	SnapshotEvery int

	// retryAttempts/retryBase override the write-retry schedule in
	// tests; zero means the defaults (4 attempts, 1ms base).
	retryAttempts int
	retryBase     time.Duration
}

func (o JournalOptions) withDefaults() JournalOptions {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 1
	}
	if o.retryAttempts <= 0 {
		o.retryAttempts = 4
	}
	if o.retryBase <= 0 {
		o.retryBase = time.Millisecond
	}
	return o
}

// Journal is one session's write-ahead log. Methods are safe for
// concurrent use and never return errors to the caller: a journal
// that cannot write degrades to memory-only instead of failing the
// session.
type Journal struct {
	mu   sync.Mutex
	id   string
	path string
	opts JournalOptions

	f         *os.File
	size      int64 // bytes of complete, acknowledged lines
	unsynced  int   // appends since the last fsync
	sinceSnap int   // op records since the last snapshot record
	seq       int64 // total appends, drives deterministic jitter
	degraded  bool
	records   int           // surviving records, the replay length
	create    JournalRecord // the first record when it is a create (a snapshot keeps it); zero otherwise
}

// JournalPath returns the journal file for a session ID in dir.
func JournalPath(dir, id string) string {
	return filepath.Join(dir, id+".journal")
}

// JournalFiles lists the session IDs with a journal in dir, sorted.
func JournalFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".journal") {
			ids = append(ids, strings.TrimSuffix(name, ".journal"))
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// OpenJournal starts a fresh journal for a new session, truncating any
// stale file of the same name. It always returns a usable journal; if
// the directory or file cannot be prepared the journal starts in
// degraded (memory-only) mode.
func OpenJournal(dir, id string, opts JournalOptions) *Journal {
	j := newJournal(dir, id, opts)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.openLocked(os.O_CREATE | os.O_TRUNC | os.O_WRONLY); err != nil {
		j.degradeLocked(err)
	}
	return j
}

// ResumeJournal reattaches a journal after replay: recs are the
// records that survived ReadJournal. The file is rewritten from them,
// which both drops any corrupt tail and guarantees the next append
// starts on a clean line boundary.
func ResumeJournal(dir, id string, recs []JournalRecord, opts JournalOptions) *Journal {
	j := newJournal(dir, id, opts)
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, r := range recs {
		j.countLocked(r)
	}
	if err := j.rewriteLocked(recs); err != nil {
		j.degradeLocked(err)
	}
	return j
}

func newJournal(dir, id string, opts JournalOptions) *Journal {
	return &Journal{id: id, path: JournalPath(dir, id), opts: opts.withDefaults()}
}

// countLocked accounts for one more surviving record.
func (j *Journal) countLocked(rec JournalRecord) {
	if j.records == 0 && rec.Kind == "create" {
		j.create = rec
	}
	j.records++
	switch rec.Kind {
	case "op":
		j.sinceSnap++
	case "snapshot":
		j.sinceSnap = 0
	}
}

// Append journals one record. Errors never surface: failed writes
// retry with backoff and then degrade the journal to memory-only.
// A nil journal (journaling disabled) is a no-op.
func (j *Journal) Append(rec JournalRecord) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.countLocked(rec)
	if j.degraded {
		return
	}
	line, err := marshalLine(rec)
	if err != nil {
		j.degradeLocked(err)
		return
	}
	j.seq++
	start := time.Now()
	if err := j.writeRetryLocked(line); err != nil {
		j.degradeLocked(err)
		return
	}
	hJournalAppendNS.ObserveSince(start)
	cJournalAppends.Inc()
}

// Degraded reports whether the journal has fallen back to
// memory-only mode. Nil journals report true: nothing is durable.
func (j *Journal) Degraded() bool {
	if j == nil {
		return true
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// Path returns the journal file path ("" for a nil journal).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Close fsyncs and closes the file, keeping it on disk for replay.
func (j *Journal) Close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		_ = j.f.Sync()
		_ = j.f.Close()
		j.f = nil
	}
}

// Remove deletes the journal from disk (the session was deleted; there
// is nothing left to replay).
func (j *Journal) Remove() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		_ = j.f.Close()
		j.f = nil
	}
	_ = os.Remove(j.path)
	if j.degraded {
		j.degraded = false
		gJournalDegraded.Add(-1)
	}
}

// Records returns the number of surviving journal records (the replay
// length after a crash at this instant). Zero for a nil journal.
func (j *Journal) Records() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// SnapshotDue reports whether enough op records accumulated since the
// last snapshot that the owner should call Snapshot. Always false when
// snapshots are disabled, on a nil journal, or in degraded mode (there
// is no file left to bound).
func (j *Journal) SnapshotDue() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.opts.SnapshotEvery > 0 && !j.degraded && j.sinceSnap >= j.opts.SnapshotEvery
}

// Snapshot rewrites the journal to its creation record followed by a
// single snapshot record carrying state (the owner's serialized
// canonical session state), discarding every record the snapshot
// supersedes. Failure (including an injected fault at
// "journal.snapshot") leaves the journal untouched and still valid —
// replay just stays proportional to total history; it reports whether
// the snapshot took effect.
func (j *Journal) Snapshot(state json.RawMessage) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.degraded || j.create.Kind != "create" {
		return false
	}
	if err := fault.Inject("journal.snapshot"); err != nil {
		return false
	}
	if err := j.rewriteLocked([]JournalRecord{j.create, {Kind: "snapshot", Args: state}}); err != nil {
		return false
	}
	j.records, j.sinceSnap = 2, 0
	cJournalSnapshots.Inc()
	hJournalSnapshotBytes.Observe(int64(len(state)))
	return true
}

// ArchiveJournal tombstones a session's journal: the file moves from
// the live journal directory to the archive directory, out of the
// boot-time replay scan but resurrectable on demand. An injected fault
// at "journal.archive" fails the move, leaving the live journal
// intact.
func ArchiveJournal(dir, archiveDir, id string) error {
	if err := fault.Inject("journal.archive"); err != nil {
		return err
	}
	if err := os.MkdirAll(archiveDir, 0o755); err != nil {
		return err
	}
	if err := os.Rename(JournalPath(dir, id), JournalPath(archiveDir, id)); err != nil {
		return err
	}
	cJournalArchived.Inc()
	return nil
}

// UnarchiveJournal moves an archived session journal back into the
// live journal directory so it can be replayed.
func UnarchiveJournal(archiveDir, dir, id string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.Rename(JournalPath(archiveDir, id), JournalPath(dir, id))
}

// ReadJournal decodes a journal file. Lines that fail JSON decoding
// or the CRC check — a torn append from a crash, or corruption — are
// counted and skipped, never fatal. A missing file is zero records.
func ReadJournal(path string) (recs []JournalRecord, corrupt int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var line journalLine
		if json.Unmarshal(b, &line) != nil || crc32.ChecksumIEEE(line.Rec) != line.CRC {
			corrupt++
			cJournalCorrupt.Inc()
			continue
		}
		var rec JournalRecord
		if json.Unmarshal(line.Rec, &rec) != nil {
			corrupt++
			cJournalCorrupt.Inc()
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, corrupt, err
	}
	return recs, corrupt, nil
}

func marshalLine(rec JournalRecord) ([]byte, error) {
	recBytes, err := marshalNoEscape(rec)
	if err != nil {
		return nil, err
	}
	line, err := marshalNoEscape(journalLine{CRC: crc32.ChecksumIEEE(recBytes), Rec: recBytes})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// marshalNoEscape marshals without HTML escaping, so client-provided
// args (e.g. a correspondence spec "A.x -> B.y") round-trip through
// the journal byte-identically.
func marshalNoEscape(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	return b[:len(b)-1], nil // Encode appends a newline; the framing adds its own
}

func (j *Journal) openLocked(flags int) error {
	if err := os.MkdirAll(filepath.Dir(j.path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(j.path, flags, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	j.f = f
	j.size = st.Size()
	j.unsynced = 0
	return nil
}

// writeRetryLocked appends one framed line, fsyncing per policy, with
// capped exponential backoff. The jitter is derived from the append
// sequence number, not a clock or global RNG, so failure schedules
// are reproducible in tests.
func (j *Journal) writeRetryLocked(line []byte) error {
	var err error
	for attempt := 0; attempt < j.opts.retryAttempts; attempt++ {
		if attempt > 0 {
			cJournalRetries.Inc()
			delay := j.opts.retryBase << (attempt - 1)
			if max := 100 * time.Millisecond; delay > max {
				delay = max
			}
			jitter := time.Duration((j.seq*2654435761+int64(attempt))%512) * time.Microsecond
			time.Sleep(delay + jitter)
		}
		if err = j.writeOnceLocked(line); err == nil {
			return nil
		}
	}
	return err
}

func (j *Journal) writeOnceLocked(line []byte) error {
	if err := fault.Inject("journal.append"); err != nil {
		return err
	}
	if j.f == nil {
		if err := j.openLocked(os.O_CREATE | os.O_WRONLY); err != nil {
			return err
		}
	}
	if _, err := j.f.WriteAt(line, j.size); err != nil {
		// Drop any partial write so the retry starts on a clean
		// boundary (best effort; a reader skips a torn line anyway).
		_ = j.f.Truncate(j.size)
		return err
	}
	j.unsynced++
	if j.unsynced >= j.opts.FsyncEvery {
		if err := fault.Inject("journal.sync"); err != nil {
			return err
		}
		if err := fsync(j.f); err != nil {
			return err
		}
		j.unsynced = 0
	}
	j.size += int64(len(line))
	return nil
}

func (j *Journal) degradeLocked(cause error) {
	if j.degraded {
		return
	}
	j.degraded = true
	gJournalDegraded.Add(1)
	if j.f != nil {
		_ = j.f.Close()
		j.f = nil
	}
	fmt.Fprintf(os.Stderr, "warn: journal %s degraded to memory-only: %v\n", j.id, cause)
}

// fsync syncs f, timing it into clio.journal.fsync.ns.
func fsync(f *os.File) error {
	start := time.Now()
	err := f.Sync()
	hJournalFsyncNS.ObserveSince(start)
	return err
}

// rewriteLocked atomically replaces the file with recs: write a temp
// file, fsync, rename over, reopen for append.
func (j *Journal) rewriteLocked(recs []JournalRecord) error {
	if err := os.MkdirAll(filepath.Dir(j.path), 0o755); err != nil {
		return err
	}
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		line, err := marshalLine(rec)
		if err == nil {
			_, err = f.Write(line)
		}
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := fsync(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return err
	}
	if j.f != nil {
		_ = j.f.Close()
		j.f = nil
	}
	// Reopen plain O_WRONLY: appends go through WriteAt at the tracked
	// size (WriteAt is incompatible with O_APPEND).
	return j.openLocked(os.O_WRONLY)
}
