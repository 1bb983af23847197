package serve

import (
	"context"
	"net/http"
	"strings"

	"clio/internal/core"
	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/paperdb"
	"clio/internal/render"
	"clio/internal/workspace"
)

// routes wires every endpoint onto the mux. State-changing session
// endpoints go through opHandler, which dispatches via applyOp and
// journals the operation — the same dispatcher boot-time replay uses.
func (s *Server) routes() {
	// healthz answers 503 while draining so a load balancer stops
	// routing before in-flight requests finish and connections close.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// Operational endpoints bypass the admission gate: a saturated or
	// misbehaving server is exactly when scrapes and trace inspection
	// must still answer.
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraceIndex)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	s.mux.Handle("GET /api/sessions/{id}/explain", s.handle("explain", s.handleExplain))
	s.mux.Handle("GET /api/stats", s.handle("stats", s.handleStats))
	s.mux.Handle("POST /api/sessions", s.handle("session_create", s.handleCreateSession))
	s.mux.Handle("GET /api/sessions", s.handle("session_list", s.handleListSessions))
	s.mux.Handle("GET /api/sessions/archived", s.handle("session_archived", s.handleArchivedSessions))
	s.mux.Handle("DELETE /api/sessions/{id}", s.handle("session_delete", s.handleDeleteSession))
	s.mux.Handle("POST /api/sessions/{id}/resurrect", s.handle("session_resurrect", s.handleResurrect))
	for _, op := range []string{"corr", "walk", "chase", "filter", "use", "accept", "undo", "rows"} {
		s.mux.Handle("POST /api/sessions/{id}/"+op, s.handle(op, s.opHandler(op)))
	}
	s.mux.Handle("GET /api/sessions/{id}/workspaces", s.handle("workspaces", s.handleWorkspaces))
	s.mux.Handle("GET /api/sessions/{id}/illustration", s.handle("illustration", s.handleIllustration))
	s.mux.Handle("GET /api/sessions/{id}/examples", s.handle("examples", s.handleExamples))
	s.mux.Handle("GET /api/sessions/{id}/view", s.handle("view", s.handleView))
	s.mux.Handle("GET /api/sessions/{id}/watch", s.handle("watch", s.handleWatch))
	s.mux.Handle("GET /api/sessions/{id}/status", s.handle("status", s.handleStatus))
}

// opHandler serves one state-changing session operation: read the
// args, apply them under the session lock, and journal the op verbatim
// on success (failed ops are never journaled — replay re-executes only
// acknowledged work).
func (s *Server) opHandler(op string) handlerFunc {
	return func(ctx context.Context, r *http.Request) (any, error) {
		args, err := readArgs(r)
		if err != nil {
			return nil, err
		}
		return s.withSession(r, func(sess *Session) (any, error) {
			out, err := s.applyOp(ctx, sess, op, args)
			if err != nil {
				return nil, err
			}
			sess.journal.Append(workspace.JournalRecord{Kind: "op", Op: op, Args: args})
			s.maybeSnapshot(sess)
			s.publishWatch(ctx, sess, op)
			return out, nil
		})
	}
}

func (s *Server) handleCreateSession(ctx context.Context, r *http.Request) (any, error) {
	args, err := readArgs(r)
	if err != nil {
		return nil, err
	}
	sess := s.newSession()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	out, err := s.initSession(ctx, sess, args)
	if err != nil {
		s.dropSession(sess.ID)
		return nil, err
	}
	if s.cfg.JournalDir != "" {
		sess.journal = workspace.OpenJournal(s.cfg.JournalDir, sess.ID, s.cfg.journalOptions())
		sess.journal.Append(workspace.JournalRecord{Kind: "create", Args: args})
	}
	return out, nil
}

func (s *Server) handleListSessions(ctx context.Context, r *http.Request) (any, error) {
	return map[string]any{"sessions": s.sessionIDs()}, nil
}

func (s *Server) handleDeleteSession(ctx context.Context, r *http.Request) (any, error) {
	id := r.PathValue("id")
	sess, err := s.session(r)
	if err != nil {
		return nil, err
	}
	s.dropSession(id)
	// Delete the journal too: there is nothing left to replay.
	sess.mu.Lock()
	sess.journal.Remove()
	sess.journal = nil
	sess.mu.Unlock()
	return map[string]string{"deleted": id}, nil
}

func (s *Server) handleStats(ctx context.Context, r *http.Request) (any, error) {
	return map[string]any{
		"sessions":          len(s.sessionIDs()),
		"sessions_archived": len(s.archivedIDs()),
		"cache_entries":     fd.CacheLen(),
		"cache_capacity":    fd.CacheCapacity(),
		"in_flight":         gInFlight.Value(),
		"requests":          cRequests.Value(),
		"throttled":         cThrottled.Value(),
		"session_throttled": cSessionThrottled.Value(),
		"expired":           cExpired.Value(),
		"resurrected":       cResurrected.Value(),
	}, nil
}

// withSession resolves the session and runs f under the session lock.
// A tombstoned session (idle-expired between lookup and lock) answers
// 404 like any other missing session.
func (s *Server) withSession(r *http.Request, f func(sess *Session) (any, error)) (any, error) {
	sess, err := s.session(r)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.gone {
		return nil, notFound("no session %q", sess.ID)
	}
	if sess.tool == nil {
		return nil, badRequest("session %s has no tool", sess.ID)
	}
	sess.touch()
	return f(sess)
}

// workspacesBody is the canonical response after operators that
// replace the workspace set.
func workspacesBody(tool *workspace.Tool) map[string]any {
	act := tool.Active()
	var list []map[string]any
	for _, w := range tool.Workspaces() {
		list = append(list, map[string]any{
			"id":     w.ID,
			"note":   w.Note,
			"rank":   w.Rank,
			"nodes":  w.Mapping.Graph.Nodes(),
			"active": w == act,
		})
	}
	body := map[string]any{"workspaces": list}
	if act != nil {
		body["active"] = act.ID
	}
	return body
}

func parsePred(pred string) (expr.Expr, error) {
	p, err := expr.Parse(strings.TrimSpace(pred))
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return p, nil
}

func (s *Server) handleWorkspaces(ctx context.Context, r *http.Request) (any, error) {
	return s.withSession(r, func(sess *Session) (any, error) {
		return workspacesBody(sess.tool), nil
	})
}

// handleIllustration renders the active workspace's current
// illustration (maintained incrementally by the operators).
func (s *Server) handleIllustration(ctx context.Context, r *http.Request) (any, error) {
	return s.withSession(r, func(sess *Session) (any, error) {
		w := sess.tool.Active()
		if w == nil {
			return nil, badRequest("no active workspace")
		}
		return map[string]any{
			"mapping":  w.Mapping.Name,
			"examples": len(w.Illustration.Examples),
			"text":     render.Illustration(w.Illustration, paperdb.Abbrev()),
		}, nil
	})
}

// handleExamples recomputes the full example set of the active mapping
// from D(G). Unlike the incrementally-maintained illustration this
// goes through fd.Compute, so repeated calls are served by the D(G)
// cache until the instance changes.
func (s *Server) handleExamples(ctx context.Context, r *http.Request) (any, error) {
	return s.withSession(r, func(sess *Session) (any, error) {
		w := sess.tool.Active()
		if w == nil {
			return nil, badRequest("no active workspace")
		}
		dg, err := w.Mapping.DG(ctx, sess.in)
		if err != nil {
			return nil, opError(err)
		}
		il, err := core.ExamplesOn(ctx, w.Mapping, sess.in, dg)
		if err != nil {
			return nil, opError(err)
		}
		return map[string]any{
			"mapping":      w.Mapping.Name,
			"associations": dg.Len(),
			"examples":     len(il.Examples),
			"text":         render.Illustration(il, paperdb.Abbrev()),
		}, nil
	})
}

func (s *Server) handleView(ctx context.Context, r *http.Request) (any, error) {
	return s.withSession(r, func(sess *Session) (any, error) {
		view, rows, err := sessionView(ctx, sess)
		if err != nil {
			return nil, opError(err)
		}
		return map[string]any{
			"target": view.Name,
			"scheme": view.Scheme().Names(),
			"rows":   rows,
			"text":   render.TableRows(view, rows, render.Options{Unqualify: true}),
		}, nil
	})
}

func (s *Server) handleStatus(ctx context.Context, r *http.Request) (any, error) {
	return s.withSession(r, func(sess *Session) (any, error) {
		return map[string]any{
			"status": sess.tool.TargetStatus(),
			"oplog":  sess.tool.OpLogString(),
		}, nil
	})
}
