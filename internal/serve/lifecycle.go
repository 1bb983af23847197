package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"clio/internal/workspace"
)

// Session lifecycle: long-running deployments must not accumulate
// sessions and unboundedly long journals forever. Two mechanisms bound
// them:
//
//   - Snapshot compaction, the journal's only compaction: after every
//     cfg.SnapshotEvery ops (default 64) the session's state that
//     cannot be recomputed (tool state without D(G)s, plus the row
//     edits since creation) is written into the journal as a
//     "snapshot" record and the records it supersedes are discarded,
//     so crash replay costs at most ops-since-last-snapshot plus the
//     row edits the snapshot carries.
//
//   - Idle expiry: a reaper goroutine tombstones sessions idle past
//     cfg.IdleTTL — final snapshot, journal moved to the archive
//     directory, in-memory tool released. Tombstoned sessions are
//     absent from the live list but never silently lost (the paper's
//     Section 6 contract): POST /api/sessions/{id}/resurrect replays
//     the archived journal back to live, byte-identically.

// sessionSnapshot is the payload of a journal "snapshot" record: the
// row edits applied since creation (verbatim, replayed through the
// normal dispatcher) and the tool's canonical state.
type sessionSnapshot struct {
	RowOps []json.RawMessage   `json:"rowOps,omitempty"`
	Tool   workspace.ToolState `json:"tool"`
}

// maybeSnapshot writes a snapshot record when one is due. The caller
// holds sess.mu. Failure is harmless: the journal keeps its op records
// and stays replayable, just unbounded.
func (s *Server) maybeSnapshot(sess *Session) {
	if !sess.journal.SnapshotDue() {
		return
	}
	s.snapshotSessionLocked(sess)
}

// snapshotSessionLocked serializes the session and hands it to the
// journal. The caller holds sess.mu.
func (s *Server) snapshotSessionLocked(sess *Session) bool {
	if sess.tool == nil || sess.journal == nil {
		return false
	}
	st, err := sess.tool.SnapshotState()
	if err != nil {
		fmt.Fprintf(os.Stderr, "warn: session %s: snapshot state: %v\n", sess.ID, err)
		return false
	}
	payload, err := marshalSnapshot(sessionSnapshot{RowOps: sess.rowOps, Tool: st})
	if err != nil {
		fmt.Fprintf(os.Stderr, "warn: session %s: snapshot marshal: %v\n", sess.ID, err)
		return false
	}
	return sess.journal.Snapshot(payload)
}

// marshalSnapshot marshals without HTML escaping, keeping embedded
// client args (e.g. "->" in correspondence specs) byte-identical.
func marshalSnapshot(snap sessionSnapshot) (json.RawMessage, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(snap); err != nil {
		return nil, err
	}
	return json.RawMessage(bytes.TrimRight(buf.Bytes(), "\n")), nil
}

// restoreFromSnapshot rebuilds a freshly initialized session from a
// snapshot record: re-apply the row inserts through the normal
// dispatcher (repopulating sess.rowOps), then install the tool state.
// The caller holds sess.mu and has just run initSession.
func (s *Server) restoreFromSnapshot(ctx context.Context, sess *Session, args json.RawMessage) error {
	var snap sessionSnapshot
	if err := json.Unmarshal(args, &snap); err != nil {
		return fmt.Errorf("decode snapshot: %w", err)
	}
	for _, raw := range snap.RowOps {
		if _, err := s.applyOp(ctx, sess, "rows", raw); err != nil {
			return fmt.Errorf("replay snapshot rows: %w", err)
		}
	}
	return sess.tool.RestoreState(snap.Tool)
}

// startReaper launches the idle-session reaper goroutine; stopReaper
// (called from Shutdown) terminates it.
func (s *Server) startReaper() {
	s.reapStop = make(chan struct{})
	s.reapWG.Add(1)
	go func() {
		defer s.reapWG.Done()
		every := s.cfg.ReapEvery
		if every <= 0 {
			every = time.Second
		}
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-s.reapStop:
				return
			case now := <-ticker.C:
				s.reapIdle(now)
			}
		}
	}()
}

func (s *Server) stopReaper() {
	if s.reapStop != nil {
		close(s.reapStop)
		s.reapWG.Wait()
		s.reapStop = nil
	}
}

// reapIdle tombstones every session idle past the TTL as of now.
func (s *Server) reapIdle(now time.Time) {
	s.mu.Lock()
	candidates := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		candidates = append(candidates, sess)
	}
	s.mu.Unlock()
	for _, sess := range candidates {
		s.tombstone(sess, now)
	}
}

// tombstone archives one idle session: final snapshot (bounding the
// later resurrect replay), journal file moved to the archive
// directory, tool and instance released, session dropped from the live
// map. A session that was touched in the meantime, has no durable
// journal, or whose archive move fails (fault point "journal.archive")
// stays live and untouched.
func (s *Server) tombstone(sess *Session, now time.Time) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.gone || now.Sub(sess.lastUsed) < s.cfg.IdleTTL {
		return
	}
	if sess.journal == nil || sess.journal.Degraded() {
		// Nothing durable to archive — expiring would lose the
		// session for good, violating the never-silently-lost
		// contract. Keep it.
		return
	}
	s.snapshotSessionLocked(sess)
	if err := workspace.ArchiveJournal(s.cfg.JournalDir, s.cfg.ArchiveDir, sess.ID); err != nil {
		fmt.Fprintf(os.Stderr, "warn: session %s: archive move failed, keeping live: %v\n", sess.ID, err)
		return
	}
	// The rename moved the file; the still-open handle remains valid,
	// so Close's final fsync lands in the archived file.
	sess.journal.Close()
	sess.journal = nil
	sess.tool = nil
	sess.viewRel, sess.viewRows = nil, nil
	sess.in = nil
	sess.target = nil
	sess.rowOps = nil
	sess.gone = true
	s.dropSession(sess.ID)
	cExpired.Inc()
	gArchived.Set(int64(len(s.archivedIDs())))
}

// archivedIDs lists the tombstoned sessions present in the archive
// directory, sorted.
func (s *Server) archivedIDs() []string {
	if s.cfg.ArchiveDir == "" {
		return nil
	}
	ids, err := workspace.JournalFiles(s.cfg.ArchiveDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warn: listing archive %s: %v\n", s.cfg.ArchiveDir, err)
		return nil
	}
	return ids
}

// noteArchivedIDs advances the session ID allocator past every
// archived session, so a resurrected session never collides with a
// newly created one. Called once at boot.
func (s *Server) noteArchivedIDs() {
	ids := s.archivedIDs()
	s.mu.Lock()
	for _, id := range ids {
		if n, ok := sessionNum(id); ok && n > s.nextID {
			s.nextID = n
		}
	}
	s.mu.Unlock()
	gArchived.Set(int64(len(ids)))
}

func (s *Server) handleArchivedSessions(ctx context.Context, r *http.Request) (any, error) {
	ids := s.archivedIDs()
	if ids == nil {
		ids = []string{}
	}
	return map[string]any{"archived": ids}, nil
}

// handleResurrect replays an archived session back to live: the
// journal moves back into the live directory and replays through the
// same dispatcher boot uses, restoring the session byte-identically.
func (s *Server) handleResurrect(ctx context.Context, r *http.Request) (any, error) {
	id := r.PathValue("id")
	if s.cfg.JournalDir == "" || s.cfg.ArchiveDir == "" {
		return nil, badRequest("session archiving is disabled (no journal dir)")
	}
	if s.peekSession(id) != nil {
		return nil, &httpError{http.StatusConflict, fmt.Sprintf("session %q is already live", id)}
	}
	if err := workspace.UnarchiveJournal(s.cfg.ArchiveDir, s.cfg.JournalDir, id); err != nil {
		if os.IsNotExist(err) {
			return nil, notFound("no archived session %q", id)
		}
		return nil, &httpError{http.StatusInternalServerError, fmt.Sprintf("unarchive %q: %v", id, err)}
	}
	s.replaySession(id)
	sess := s.peekSession(id)
	if sess == nil {
		return nil, &httpError{http.StatusInternalServerError, fmt.Sprintf("resurrecting %q: replay failed", id)}
	}
	cResurrected.Inc()
	gArchived.Set(int64(len(s.archivedIDs())))
	return map[string]any{"id": id, "resurrected": true}, nil
}

// sessionNum extracts the numeric part of a session ID ("s12" -> 12).
func sessionNum(id string) (int, bool) {
	if len(id) < 2 || id[0] != 's' {
		return 0, false
	}
	n := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
