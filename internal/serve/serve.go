// Package serve exposes the mapping tool as a long-lived HTTP/JSON
// service: clients create sessions (one Clio tool each, Section 2's
// interactive loop), then drive correspondences, walks, chases,
// filters, illustrations, and the WYSIWYG target view over them.
// Sessions are independent and may be used concurrently; operations
// within one session serialize on a per-session lock. The server
// applies a bounded-concurrency admission gate (429 when saturated),
// per-request timeouts whose cancellation reaches fd.Compute, and
// graceful shutdown that drains in-flight requests.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/spill"
	"clio/internal/workspace"
)

// Service instrumentation.
var (
	cRequests         = obs.GetCounter("serve.requests")
	cErrors           = obs.GetCounter("serve.request_errors")
	cThrottled        = obs.GetCounter("serve.throttled")
	cSessionThrottled = obs.GetCounter("serve.session_throttled")
	cPanics           = obs.GetCounter("clio.panics")
	cBudgetRejected   = obs.GetCounter("serve.budget_rejections")
	cExpired          = obs.GetCounter("serve.sessions_expired")
	cResurrected      = obs.GetCounter("serve.sessions_resurrected")
	gInFlight         = obs.GetGauge("serve.in_flight")
	gSessions         = obs.GetGauge("serve.sessions")
	gArchived         = obs.GetGauge("serve.sessions_archived")
	hRequestNS        = obs.GetHistogram("serve.request.ns")
)

// Config tunes a Server.
type Config struct {
	// Addr is the listen address (host:port; ":0" picks a free port).
	Addr string
	// RequestTimeout bounds each request; its cancellation propagates
	// through the operator into fd.Compute. Default 30s.
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently admitted requests; beyond it the
	// server answers 429 immediately. Default 32.
	MaxInFlight int
	// CacheCapacity sizes the D(G) memo cache (entries). Zero keeps
	// the package default; negative disables caching.
	CacheCapacity int
	// MineINDs enables inclusion-dependency mining when sessions build
	// their join knowledge.
	MineINDs bool
	// JournalDir enables crash-safe sessions: every session's
	// state-changing operations are journaled under this directory
	// and replayed on the next boot. Empty disables journaling.
	JournalDir string
	// JournalFsyncEvery fsyncs the journal after every Nth append
	// (default 1 = every append).
	JournalFsyncEvery int
	// SnapshotEvery writes a session-state snapshot into the journal
	// after every Nth op and discards the records it supersedes,
	// bounding replay cost by ops-since-last-snapshot; it is the
	// journal's only compaction. Zero means 64; negative disables, and
	// the journal then grows with every op. Needs JournalDir.
	SnapshotEvery int
	// IdleTTL tombstones sessions idle longer than this: a final
	// snapshot is taken, the journal moves to the archive directory,
	// and the in-memory tool is released. An archived session is
	// absent from the live list but resurrectable via
	// POST /api/sessions/{id}/resurrect. Zero disables; requires
	// JournalDir.
	IdleTTL time.Duration
	// ReapEvery is the idle-reaper tick (default IdleTTL/4).
	ReapEvery time.Duration
	// ArchiveDir stores tombstoned session journals (default
	// JournalDir/archive).
	ArchiveDir string
	// Budget caps the rows/bytes any single request may materialize
	// (D(G) computations included). Exceeding it returns 413. Zero
	// fields are unlimited.
	Budget fd.Budget
	// SessionBudget caps the rows/bytes a single session-scoped
	// request may materialize, layered under (field-wise min with) the
	// server-wide Budget. Zero fields are unlimited.
	SessionBudget fd.Budget
	// SessionRPS rate-limits each session with its own token bucket
	// (burst = ceil(SessionRPS), min 1): a saturating tenant gets 429
	// with Retry-After while other sessions keep serving under the
	// shared admission gate. Zero disables.
	SessionRPS float64
	// RetryAfter is the back-off hint sent with 429 responses
	// (rounded up to whole seconds). Default 1s.
	RetryAfter time.Duration
	// AccessLog, when non-nil, receives one structured JSON line per
	// completed request (trace ID, endpoint, session, status,
	// duration, budget charge, D(G) cache disposition).
	AccessLog io.Writer
	// SlowThreshold logs requests at least this slow at warning level
	// — to AccessLog when set, else to stderr. Zero disables slow-op
	// logging.
	SlowThreshold time.Duration
	// TraceBufferSize bounds the always-on trace retention ring: the N
	// most recent and N slowest completed span trees stay queryable
	// via GET /debug/traces. Zero means the default (32); negative
	// disables retention.
	TraceBufferSize int
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 64
	}
	if c.SnapshotEvery == 0 {
		// The journal itself treats zero as disabled.
		c.SnapshotEvery = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.ReapEvery <= 0 {
		c.ReapEvery = c.IdleTTL / 4
	}
	if c.ArchiveDir == "" && c.JournalDir != "" {
		c.ArchiveDir = filepath.Join(c.JournalDir, "archive")
	}
	return c
}

// journalOptions translates the config into per-session journal
// options.
func (c Config) journalOptions() workspace.JournalOptions {
	return workspace.JournalOptions{FsyncEvery: c.JournalFsyncEvery, SnapshotEvery: c.SnapshotEvery}
}

// Session is one tool instance owned by the server. Its lock
// serializes operations within the session; distinct sessions run
// concurrently.
type Session struct {
	ID string

	mu      sync.Mutex
	in      *relation.Instance
	target  *schema.Relation
	tool    *workspace.Tool
	journal *workspace.Journal
	// rowOps keeps every successful "rows" op's args verbatim since
	// session creation; journal snapshots embed them so a restored
	// tool sees the same instance mutations in the same order.
	rowOps []json.RawMessage
	// lastUsed drives idle expiry; gone marks a tombstoned session
	// (its journal archived, its tool released).
	lastUsed time.Time
	gone     bool

	// bucket is the per-session token-bucket rate limiter (nil when
	// SessionRPS is unset).
	bucket *tokenBucket

	// watch is the per-session view-delta feed, created lazily on the
	// first GET .../watch and fed by opHandler after every successful
	// state-changing op. Guarded by sess.mu for creation; its own lock
	// for event access (long-pollers must not hold sess.mu).
	watch *sessionWatch

	// viewRel is the last target view relation the session rendered and
	// viewRows its display rows (see sessionView). Guarded by sess.mu.
	viewRel  *relation.Relation
	viewRows [][]string
}

// touch refreshes the idle clock. Callers hold sess.mu.
func (sess *Session) touch() { sess.lastUsed = time.Now() }

// tokenBucket is a minimal token-bucket rate limiter.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rps float64) *tokenBucket {
	burst := math.Ceil(rps)
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rps, burst: burst, tokens: burst}
}

// take consumes one token if available; otherwise it reports how long
// until the next token accrues.
func (b *tokenBucket) take(now time.Time) (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	return wait, false
}

// Server is the HTTP front end.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	gate    chan struct{}
	httpSrv *http.Server
	ln      net.Listener

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int
	serveErr chan error

	// Observability plane: retained trace trees, structured access
	// log, slow-request logger (stderr fallback), drain flag for
	// healthz, and the statusz uptime anchor.
	traces   *obs.TraceBuffer
	access   *slog.Logger
	slow     *slog.Logger
	draining atomic.Bool
	started  time.Time

	reapStop chan struct{}
	reapWG   sync.WaitGroup
	shutOnce sync.Once
}

// New builds a server (not yet listening). It sizes the D(G) cache
// according to cfg.CacheCapacity.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cap := cfg.CacheCapacity
	if cap < 0 {
		cap = 0
	}
	fd.SetCacheCapacity(cap)
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		gate:     make(chan struct{}, cfg.MaxInFlight),
		sessions: map[string]*Session{},
		serveErr: make(chan error, 1),
		started:  time.Now(),
	}
	// The observability plane is always on for a server: metrics and
	// span retention are how an operator sees inside it. Background
	// (non-request) evaluation stays span-free, so this costs the hot
	// loops nothing (see algebra's idle-tracing alloc test).
	obs.SetEnabled(true)
	if cfg.TraceBufferSize >= 0 {
		size := cfg.TraceBufferSize
		if size == 0 {
			size = 32
		}
		// Chain onto whatever exporter is already installed (e.g. the
		// CLI's --trace stream), but never onto a previous server's
		// buffer: de-chain it so repeated New calls don't stack.
		prev := obs.CurrentExporter()
		if tb, ok := prev.(*obs.TraceBuffer); ok {
			prev = tb.Next()
		}
		s.traces = obs.NewTraceBuffer(size, prev)
		obs.SetExporter(s.traces)
	}
	if cfg.AccessLog != nil {
		s.access = slog.New(slog.NewJSONHandler(cfg.AccessLog, nil))
	}
	if cfg.SlowThreshold > 0 {
		if cfg.AccessLog != nil {
			s.slow = s.access
		} else {
			s.slow = slog.New(slog.NewJSONHandler(os.Stderr, nil))
		}
	}
	s.routes()
	if dir := cfg.Budget.SpillDir; dir != "" {
		// Reclaim spill partitions orphaned by a crash: live partition
		// files are always removed by their PartitionSet, so anything
		// matching the pattern at boot is garbage from a kill -9
		// mid-spill.
		if n, err := spill.SweepDir(dir); err != nil {
			fmt.Fprintf(os.Stderr, "serve: spill sweep of %s failed: %v\n", dir, err)
		} else if n > 0 {
			fmt.Fprintf(os.Stderr, "serve: removed %d orphaned spill file(s) from %s\n", n, dir)
		}
	}
	if cfg.JournalDir != "" {
		s.replayJournals()
		s.noteArchivedIDs()
	}
	if cfg.JournalDir != "" && cfg.IdleTTL > 0 {
		s.startReaper()
	}
	return s
}

// Handler returns the root handler (exported for tests).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on cfg.Addr and serves in a background goroutine.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	go func() {
		err := s.httpSrv.Serve(ln)
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.serveErr <- err
		}
		close(s.serveErr)
	}()
	return nil
}

// Addr reports the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown stops the idle reaper, stops accepting connections, drains
// in-flight requests until ctx expires, waits for the serve loop to
// exit, and closes every session journal. It works whether or not
// Start was ever called (tests drive the handler directly), and is
// idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutOnce.Do(func() {
		// Flip healthz to 503 first: a load balancer polling /healthz
		// must stop routing to a draining server before connections
		// start being refused.
		s.draining.Store(true)
		s.stopReaper()
		if s.httpSrv != nil {
			err = s.httpSrv.Shutdown(ctx)
			if serr := <-s.serveErr; serr != nil && err == nil {
				err = serr
			}
		}
		s.closeJournals()
	})
	return err
}

// closeJournals fsyncs and closes every session journal, leaving the
// files on disk for the next boot's replay.
func (s *Server) closeJournals() {
	s.mu.Lock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.mu.Lock()
		sess.journal.Close()
		sess.mu.Unlock()
	}
}

// httpError carries a status code out of a handler.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &httpError{http.StatusNotFound, fmt.Sprintf(format, args...)}
}

// opError classifies a mapping-operator failure: context errors and
// budget violations pass through (they become 504/499 and 413); anything
// else is a semantic failure of the requested operation — the server is
// fine, the operator could not apply — reported as 422.
func opError(err error) error {
	if err == nil ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, fd.ErrBudgetExceeded) {
		return err
	}
	var he *httpError
	if errors.As(err, &he) {
		return err
	}
	return &httpError{http.StatusUnprocessableEntity, err.Error()}
}

// handlerFunc is a JSON endpoint: it returns the response body (or an
// error, possibly an *httpError with a status).
type handlerFunc func(ctx context.Context, r *http.Request) (any, error)

// handle wraps a handler with the service plumbing: admission gate
// (429 + Retry-After when saturated), in-flight gauge, per-request
// trace ID (generated up front, returned as X-Clio-Trace on every
// response including rejections, and propagated through ctx into the
// operators), per-request timeout, per-request resource budget, a span
// per endpoint, JSON encoding, error mapping, structured access
// logging, and panic containment (a handler panic answers 500 and is
// captured to stderr and the session op log; the server keeps
// serving).
func (s *Server) handle(name string, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		trace := obs.NewTraceID()
		w.Header().Set("X-Clio-Trace", trace)
		start := time.Now()
		status := http.StatusOK
		var notes *obs.Notes
		var reqCtx context.Context
		// Registered first so it runs last during unwinding: by then
		// the panic defer below has settled the final status.
		defer func() {
			s.logAccess(name, r, trace, status, time.Since(start), reqCtx, notes)
		}()

		select {
		case s.gate <- struct{}{}:
			defer func() { <-s.gate }()
		default:
			cThrottled.Inc()
			secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			status = http.StatusTooManyRequests
			writeJSON(w, status,
				map[string]string{"error": "server saturated, retry later"})
			return
		}
		gInFlight.Add(1)
		defer gInFlight.Add(-1)
		cRequests.Inc()
		defer hRequestNS.ObserveSince(start)

		// Per-session token bucket, layered under the server-wide
		// gate: one tenant hammering its session gets 429 while other
		// sessions' buckets stay full.
		sessID := r.PathValue("id")
		if sess := s.peekSession(sessID); sess != nil && sess.bucket != nil {
			if wait, ok := sess.bucket.take(time.Now()); !ok {
				cSessionThrottled.Inc()
				secs := int((wait + time.Second - 1) / time.Second)
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				status = http.StatusTooManyRequests
				writeJSON(w, status,
					map[string]string{"error": "session rate limit exceeded, retry later"})
				return
			}
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		ctx = obs.WithTraceID(ctx, trace)
		ctx, notes = obs.WithNotes(ctx)
		budget := s.cfg.Budget
		if sessID != "" {
			budget = minBudget(budget, s.cfg.SessionBudget)
		}
		if !budget.Unlimited() {
			ctx = fd.WithBudget(ctx, budget)
		}
		reqCtx = ctx
		ctx, span := obs.StartSpan(ctx, "serve."+name)
		defer span.End()
		span.SetStr("trace_id", trace)
		span.SetStr("method", r.Method)
		span.SetStr("path", r.URL.Path)

		// Innermost defer: it recovers first during unwinding, after
		// the handler's own defers (session unlocks) have already run.
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			cPanics.Inc()
			cErrors.Inc()
			detail := fmt.Sprintf("%s: %v", name, rec)
			fmt.Fprintf(os.Stderr, "panic recovered in serve.%s: %v\n%s", name, rec, debug.Stack())
			s.logSessionPanic(r.PathValue("id"), detail)
			span.SetStr("panic", fmt.Sprint(rec))
			span.SetInt("status", http.StatusInternalServerError)
			status = http.StatusInternalServerError
			writeJSON(w, status,
				map[string]string{"error": "internal error: " + detail})
		}()

		resp, err := h(ctx, r.WithContext(ctx))
		if err != nil {
			cErrors.Inc()
			status = http.StatusInternalServerError
			body := map[string]any{"error": err.Error()}
			var he *httpError
			var be *fd.BudgetError
			switch {
			case errors.As(err, &be):
				// Resource budget exceeded: the request asked for more
				// than the server will materialize. Name the limit so
				// clients can tell rows from bytes, and the spill state
				// so they can tell "enable -spill-dir" from "raise
				// -max-spill-bytes".
				status = http.StatusRequestEntityTooLarge
				cBudgetRejected.Inc()
				body["limit"] = be.Limit
				body["max"] = be.Max
				body["got"] = be.Got
				body["spill"] = be.Spill
			case errors.As(err, &he):
				status = he.status
			case errors.Is(err, context.DeadlineExceeded):
				status = http.StatusGatewayTimeout
			case errors.Is(err, context.Canceled):
				status = 499 // client went away
			}
			span.SetInt("status", int64(status))
			span.SetStr("error", err.Error())
			writeJSON(w, status, body)
			return
		}
		span.SetInt("status", http.StatusOK)
		writeJSON(w, http.StatusOK, resp)
	}
}

// logAccess emits the structured access-log line for one finished
// request, and the slow-request warning when the duration crosses the
// configured threshold. reqCtx carries the request's budget tracker
// (nil before admission), notes the engine's scratchpad annotations.
func (s *Server) logAccess(endpoint string, r *http.Request, trace string, status int, dur time.Duration, reqCtx context.Context, notes *obs.Notes) {
	slow := s.cfg.SlowThreshold > 0 && dur >= s.cfg.SlowThreshold
	if s.access == nil && !(slow && s.slow != nil) {
		return
	}
	args := []any{
		"trace", trace,
		"endpoint", endpoint,
		"method", r.Method,
		"path", r.URL.Path,
		"status", status,
		"dur_ms", float64(dur.Microseconds()) / 1e3,
	}
	if id := r.PathValue("id"); id != "" {
		args = append(args, "session", id)
	}
	if reqCtx != nil {
		if rows, bytes := fd.BudgetUsed(reqCtx); rows > 0 || bytes > 0 {
			args = append(args, "budget_rows", rows, "budget_bytes", bytes)
		}
	}
	if v := notes.Get("dg_cache"); v != "" {
		args = append(args, "dg_cache", v)
	}
	switch {
	case slow && s.slow != nil:
		s.slow.Warn("slow request", args...)
		if s.access != nil && s.slow != s.access {
			s.access.Info("request", args...)
		}
	case s.access != nil:
		s.access.Info("request", args...)
	}
}

// logSessionPanic records a recovered panic in the session's op log,
// best effort: the session (or its tool) may not exist.
func (s *Server) logSessionPanic(id, detail string) {
	if id == "" {
		return
	}
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		return
	}
	sess.mu.Lock()
	tool := sess.tool
	sess.mu.Unlock()
	if tool != nil {
		tool.LogPanic(detail)
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// minBudget combines two budgets field-wise: the tighter non-zero
// limit wins (zero means unlimited). The spill directory — a
// capability, not a limit — carries over from whichever budget has one
// (the server config in practice; session budgets only tighten caps).
func minBudget(a, b fd.Budget) fd.Budget {
	dir := a.SpillDir
	if dir == "" {
		dir = b.SpillDir
	}
	// Recursion depth rides with whichever budget supplies the spill
	// capability (session budgets only tighten row/byte caps).
	depth := a.SpillRecursionDepth
	if a.SpillDir == "" {
		depth = b.SpillRecursionDepth
	}
	return fd.Budget{
		MaxRows:             minLimit(a.MaxRows, b.MaxRows),
		MaxBytes:            minLimit(a.MaxBytes, b.MaxBytes),
		SpillDir:            dir,
		MaxSpillBytes:       minLimit(a.MaxSpillBytes, b.MaxSpillBytes),
		SpillRecursionDepth: depth,
	}
}

func minLimit(a, b int64) int64 {
	switch {
	case a <= 0:
		return b
	case b <= 0:
		return a
	case a < b:
		return a
	}
	return b
}

// newSession registers a fresh session.
func (s *Server) newSession() *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	sess := &Session{ID: "s" + strconv.Itoa(s.nextID), lastUsed: time.Now()}
	if s.cfg.SessionRPS > 0 {
		sess.bucket = newTokenBucket(s.cfg.SessionRPS)
	}
	s.sessions[sess.ID] = sess
	gSessions.Set(int64(len(s.sessions)))
	return sess
}

// peekSession returns the live session for id, or nil — never an
// error; middleware uses it before the handler resolves the session
// properly.
func (s *Server) peekSession(id string) *Session {
	if id == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// session resolves a session ID from the request path.
func (s *Server) session(r *http.Request) (*Session, error) {
	id := r.PathValue("id")
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, notFound("no session %q", id)
	}
	return sess, nil
}

func (s *Server) dropSession(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return false
	}
	delete(s.sessions, id)
	gSessions.Set(int64(len(s.sessions)))
	return true
}

func (s *Server) sessionIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
