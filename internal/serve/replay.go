package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"clio/internal/core"
	"clio/internal/csvio"
	"clio/internal/obs"
	"clio/internal/paperdb"
	"clio/internal/schema"
	"clio/internal/value"
	"clio/internal/workspace"
)

// Crash-safe sessions: every state-changing request is applied through
// the applyOp dispatcher below and, on success, appended to the
// session's write-ahead journal with the client's arguments verbatim.
// On boot the server replays each journal through the same dispatcher,
// so a restarted server restores every session to exactly the state
// the last acknowledged operation left it in.

// Replay instrumentation.
var (
	cReplaySessions = obs.GetCounter("clio.journal.replayed_sessions")
	cReplayOps      = obs.GetCounter("clio.journal.replayed_ops")
	cReplayFailures = obs.GetCounter("clio.journal.replay_failures")
)

// maxBodyBytes bounds a request body; larger bodies are client errors.
const maxBodyBytes = 1 << 20

// readArgs reads a request body as raw JSON. It returns nil for an
// empty body and a 400 for syntactically invalid JSON, so every
// malformed body is rejected before any session state is touched (and
// before anything is journaled).
func readArgs(r *http.Request) (json.RawMessage, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		return nil, badRequest("read body: %v", err)
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return nil, nil
	}
	if !json.Valid(body) {
		return nil, badRequest("bad request body: invalid JSON")
	}
	return json.RawMessage(body), nil
}

// unmarshalArgs decodes journaled/request args into a typed struct,
// rejecting unknown fields. Nil args leave the struct zero-valued.
func unmarshalArgs(args json.RawMessage, into any) error {
	if len(args) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(args))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return badRequest("bad request body: %v", err)
	}
	return nil
}

// initSession builds a session's instance, target, and tool from
// create args (nil args = paper defaults). The caller holds sess.mu
// and owns cleanup on error.
func (s *Server) initSession(ctx context.Context, sess *Session, args json.RawMessage) (any, error) {
	var req struct {
		Source string `json:"source"` // "paper" (default) or a CSV directory
		Target string `json:"target"` // "paper" (default with paper source) or "Name(a, b, ...)"
		Name   string `json:"name"`   // mapping name, default "mapping"
		Mine   bool   `json:"mine"`   // enable IND mining for this session
	}
	if err := unmarshalArgs(args, &req); err != nil {
		return nil, err
	}
	sess.rowOps = nil
	switch src := req.Source; {
	case src == "" || src == "paper":
		sess.in = paperdb.Instance()
	default:
		in, err := csvio.LoadDir(src)
		if err != nil {
			return nil, badRequest("load %q: %v", src, err)
		}
		sess.in = in
	}
	switch tgt := req.Target; {
	case tgt == "" || tgt == "paper":
		if req.Source != "" && req.Source != "paper" {
			return nil, badRequest("a target spec is required with a CSV source")
		}
		sess.target = paperdb.Kids()
	default:
		t, err := schema.ParseRelationSpec(tgt)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		sess.target = t
	}
	name := req.Name
	if name == "" {
		name = "mapping"
	}
	sess.tool = workspace.New(ctx, sess.in, sess.target, s.cfg.MineINDs || req.Mine)
	if err := sess.tool.Start(name); err != nil {
		return nil, opError(err)
	}
	return map[string]any{
		"id":        sess.ID,
		"relations": sess.in.Names(),
		"target":    sess.target.String(),
		"knowledge": len(sess.tool.Knowledge.Edges()),
	}, nil
}

// applyOp applies one state-changing operation to a locked session.
// Live handlers and boot-time journal replay both go through this
// dispatcher, so a replayed session re-executes exactly what the
// client originally sent.
func (s *Server) applyOp(ctx context.Context, sess *Session, op string, args json.RawMessage) (any, error) {
	switch op {
	case "corr":
		var req struct {
			Spec string `json:"spec"` // "Children.ID -> Kids.ID"
		}
		if err := unmarshalArgs(args, &req); err != nil {
			return nil, err
		}
		c, err := core.ParseCorrespondence(req.Spec)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		if err := sess.tool.AddCorrespondence(ctx, c); err != nil {
			return nil, opError(err)
		}
		return workspacesBody(sess.tool), nil

	case "walk":
		var req struct {
			From string `json:"from"` // graph node
			To   string `json:"to"`   // base relation
		}
		if err := unmarshalArgs(args, &req); err != nil {
			return nil, err
		}
		if req.From == "" || req.To == "" {
			return nil, badRequest("walk needs from and to")
		}
		if err := sess.tool.Walk(ctx, req.From, req.To); err != nil {
			return nil, opError(err)
		}
		return workspacesBody(sess.tool), nil

	case "chase":
		var req struct {
			Column string `json:"column"` // "Children.fid"
			Value  string `json:"value"`
		}
		if err := unmarshalArgs(args, &req); err != nil {
			return nil, err
		}
		if req.Column == "" {
			return nil, badRequest("chase needs column and value")
		}
		if err := sess.tool.Chase(ctx, req.Column, value.Parse(req.Value)); err != nil {
			return nil, opError(err)
		}
		return workspacesBody(sess.tool), nil

	case "filter":
		var req struct {
			Kind string `json:"kind"` // "source" or "target"
			Pred string `json:"pred"`
		}
		if err := unmarshalArgs(args, &req); err != nil {
			return nil, err
		}
		p, err := parsePred(req.Pred)
		if err != nil {
			return nil, err
		}
		switch req.Kind {
		case "source":
			err = sess.tool.AddSourceFilter(ctx, p)
		case "target":
			err = sess.tool.AddTargetFilter(ctx, p)
		default:
			return nil, badRequest("filter kind must be source or target")
		}
		if err != nil {
			return nil, opError(err)
		}
		return workspacesBody(sess.tool), nil

	case "use":
		var req struct {
			Workspace int `json:"workspace"`
		}
		if len(args) == 0 {
			return nil, badRequest("use needs a workspace id")
		}
		if err := unmarshalArgs(args, &req); err != nil {
			return nil, err
		}
		if err := sess.tool.Use(req.Workspace); err != nil {
			return nil, notFound("%v", err)
		}
		return workspacesBody(sess.tool), nil

	case "accept":
		if err := sess.tool.Confirm(); err != nil {
			return nil, opError(err)
		}
		return map[string]any{"accepted": len(sess.tool.Accepted())}, nil

	case "undo":
		if err := sess.tool.Undo(); err != nil {
			return nil, badRequest("%v", err)
		}
		return workspacesBody(sess.tool), nil

	case "rows":
		var req struct {
			Relation string   `json:"relation"`
			Values   []string `json:"values"`
			Delete   bool     `json:"delete"`
		}
		if err := unmarshalArgs(args, &req); err != nil {
			return nil, err
		}
		rel := sess.in.Relation(req.Relation)
		if rel == nil {
			return nil, notFound("no relation %q", req.Relation)
		}
		if len(req.Values) != rel.Scheme().Arity() {
			return nil, badRequest("relation %s has arity %d, got %d values",
				req.Relation, rel.Scheme().Arity(), len(req.Values))
		}
		vals := make([]value.Value, len(req.Values))
		for i, c := range req.Values {
			vals[i] = value.Parse(c)
		}
		// The tool applies the edit and delta-maintains the active
		// workspace's D(G) and illustration; on maintenance failure it
		// rolls the instance back, so a failed op is truly a no-op.
		if err := sess.tool.ApplyRows(ctx, req.Relation, vals, req.Delete); err != nil {
			return nil, opError(err)
		}
		// Remember the edit verbatim: journal snapshots replay row
		// ops before installing tool state, so a restored session's
		// instance matches the live one exactly.
		sess.rowOps = append(sess.rowOps, args)
		out := map[string]any{
			"relation": req.Relation,
			"tuples":   rel.Len(),
			"version":  rel.Version(),
		}
		if req.Delete {
			out["deleted"] = true
		}
		return out, nil
	}
	return nil, badRequest("unknown operation %q", op)
}

// replayJournals restores every journaled session found under the
// configured journal directory. Replay runs before the server starts
// listening, so restored sessions are indistinguishable from live ones
// by the time the first request arrives.
func (s *Server) replayJournals() {
	ids, err := workspace.JournalFiles(s.cfg.JournalDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warn: journal replay: listing %s: %v\n", s.cfg.JournalDir, err)
		return
	}
	for _, id := range ids {
		s.replaySession(id)
	}
}

// replaySession restores one session from its journal: re-execute the
// create record, install the last snapshot, then re-execute every op
// record after it, through the live dispatcher. The last snapshot
// supersedes every record between it and the create record, so the
// session is built once. Corrupt records were already skipped (and
// counted) by ReadJournal; a snapshot or op that no longer applies is
// logged and skipped rather than abandoning the rest of the session.
func (s *Server) replaySession(id string) {
	path := workspace.JournalPath(s.cfg.JournalDir, id)
	recs, corrupt, err := workspace.ReadJournal(path)
	if corrupt > 0 {
		fmt.Fprintf(os.Stderr, "warn: journal %s: skipped %d corrupt record(s)\n", id, corrupt)
	}
	if err != nil || len(recs) == 0 || recs[0].Kind != "create" {
		cReplayFailures.Inc()
		fmt.Fprintf(os.Stderr, "warn: journal %s: not replayable (records=%d err=%v)\n", id, len(recs), err)
		return
	}
	sess := s.restoreSession(id)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	// Replayed ops run under a synthetic trace ID so their op-log
	// records are distinguishable from live-request ops (which carry
	// the originating request's ID) and never collide with one.
	ctx := obs.WithTraceID(context.Background(), "replay-"+obs.NewTraceID())
	if _, err := s.initSession(ctx, sess, recs[0].Args); err != nil {
		s.dropSession(id)
		cReplayFailures.Inc()
		fmt.Fprintf(os.Stderr, "warn: journal %s: create replay failed: %v\n", id, err)
		return
	}
	from := 1
	for i := len(recs) - 1; i > 0; i-- {
		if recs[i].Kind == "snapshot" {
			from = i
			break
		}
	}
	for _, rec := range recs[from:] {
		switch rec.Kind {
		case "snapshot":
			// A failed restore is logged; the ops after the snapshot
			// still apply to the session as the restore left it.
			if err := s.restoreFromSnapshot(ctx, sess, rec.Args); err != nil {
				fmt.Fprintf(os.Stderr, "warn: journal %s: snapshot restore failed: %v\n", id, err)
				continue
			}
			cReplayOps.Inc()
		case "op":
			if _, err := s.applyOp(ctx, sess, rec.Op, rec.Args); err != nil {
				fmt.Fprintf(os.Stderr, "warn: journal %s: replay of %q failed: %v\n", id, rec.Op, err)
				continue
			}
			cReplayOps.Inc()
		}
	}
	// Reattach the journal over the surviving records: the file is
	// rewritten clean (dropping any torn tail) and future ops append.
	sess.journal = workspace.ResumeJournal(s.cfg.JournalDir, id, recs, s.cfg.journalOptions())
	cReplaySessions.Inc()
}

// restoreSession registers a session under its journaled ID and keeps
// the ID allocator ahead of every restored ID.
func (s *Server) restoreSession(id string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := &Session{ID: id, lastUsed: time.Now()}
	if s.cfg.SessionRPS > 0 {
		sess.bucket = newTokenBucket(s.cfg.SessionRPS)
	}
	s.sessions[id] = sess
	if n, ok := sessionNum(id); ok && n > s.nextID {
		s.nextID = n
	}
	gSessions.Set(int64(len(s.sessions)))
	return sess
}
