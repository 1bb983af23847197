package serve

import (
	"context"
	"hash/maphash"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"clio/internal/obs"
	"clio/internal/relation"
)

// Continuous view observation: GET /api/sessions/{id}/watch long-polls
// for target-view deltas. Every successful state-changing op publishes
// one event carrying the op name, the originating request's trace ID,
// the D(G) maintenance disposition ("delta", "recompute", "none"), and
// the rows the op added to / removed from the target view — so a
// client can follow an edit loop without re-fetching the whole view,
// and can correlate each delta with the op's retained trace.

// Watch instrumentation.
var (
	cWatchEvents = obs.GetCounter("serve.watch.events")
	cWatchPolls  = obs.GetCounter("serve.watch.polls")
)

// watchRingCap bounds the per-session retained event window. A client
// that falls further behind than this sees a gap in sequence numbers
// and should re-fetch the view.
const watchRingCap = 64

// maxWatchWait bounds one long-poll; clients re-arm. Kept under the
// default request timeout so the poll answers 200-empty, not 504.
const maxWatchWait = 25 * time.Second

// watchEvent is one published view delta.
type watchEvent struct {
	Seq         int64      `json:"seq"`
	Op          string     `json:"op"`
	Trace       string     `json:"trace,omitempty"`
	Disposition string     `json:"disposition,omitempty"` // dg_maint note: delta | recompute | none
	Added       [][]string `json:"added,omitempty"`
	Removed     [][]string `json:"removed,omitempty"`
	Rows        int        `json:"rows"`
	ViewError   string     `json:"view_error,omitempty"`
}

// sessionWatch is a session's event feed. It has its own lock because
// long-pollers wait without holding sess.mu; publishers (who do hold
// sess.mu) only take w.mu briefly to append.
type sessionWatch struct {
	mu     sync.Mutex
	seq    int64
	events []watchEvent
	last   [][]string    // view rows after the last published event
	notify chan struct{} // closed and replaced on every publish
}

func newSessionWatch() *sessionWatch {
	return &sessionWatch{notify: make(chan struct{})}
}

// setBaseline installs the current view as the diff base without
// emitting an event; called once when the watch is created.
func (w *sessionWatch) setBaseline(rows [][]string) {
	w.mu.Lock()
	w.last = rows
	w.mu.Unlock()
}

// publish appends one event describing the view after an op. A view
// snapshot error is reported on the event rather than swallowed; the
// diff base is left untouched so the next successful snapshot reports
// the accumulated delta.
func (w *sessionWatch) publish(op, trace, disposition string, rows [][]string, viewErr error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	ev := watchEvent{Seq: w.seq, Op: op, Trace: trace, Disposition: disposition}
	if viewErr != nil {
		ev.ViewError = viewErr.Error()
		ev.Rows = len(w.last)
	} else {
		ev.Added, ev.Removed = diffRows(w.last, rows)
		ev.Rows = len(rows)
		w.last = rows
	}
	w.events = append(w.events, ev)
	if len(w.events) > watchRingCap {
		w.events = w.events[len(w.events)-watchRingCap:]
	}
	cWatchEvents.Inc()
	close(w.notify)
	w.notify = make(chan struct{})
}

// since returns the retained events with Seq > after, the latest
// sequence number, and the channel that closes on the next publish.
func (w *sessionWatch) since(after int64) ([]watchEvent, int64, chan struct{}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []watchEvent
	for _, e := range w.events {
		if e.Seq > after {
			out = append(out, e)
		}
	}
	return out, w.seq, w.notify
}

// diffRows computes the multiset difference between two row lists,
// preserving each side's row order (the view renders canonically, so
// the order is stable across maintenance histories): each new row
// cancels the first equal old row not yet cancelled. Rows of the common
// prefix cancel pairwise, so only the rows after it are matched, each
// new one against the old rows of its hash, confirmed cell by cell.
func diffRows(old, new [][]string) (added, removed [][]string) {
	p := 0
	for p < len(old) && p < len(new) && slices.Equal(old[p], new[p]) {
		p++
	}
	old, new = old[p:], new[p:]
	if len(old) == 0 || len(new) == 0 {
		return append(added, new...), append(removed, old...)
	}
	// first maps a row hash to the first old row with that hash; next
	// chains the later ones, in order.
	first := make(map[uint64]int, len(old))
	next := make([]int, len(old))
	for i := len(old) - 1; i >= 0; i-- {
		h := rowHash(old[i])
		next[i] = -1
		if j, ok := first[h]; ok {
			next[i] = j
		}
		first[h] = i
	}
	cancelled := make([]bool, len(old))
	for _, r := range new {
		i, ok := first[rowHash(r)]
		if !ok {
			i = -1
		}
		for i >= 0 && (cancelled[i] || !slices.Equal(old[i], r)) {
			i = next[i]
		}
		if i < 0 {
			added = append(added, r)
		} else {
			cancelled[i] = true
		}
	}
	for i, r := range old {
		if !cancelled[i] {
			removed = append(removed, r)
		}
	}
	return added, removed
}

// rowSeed keys rowHash for the life of the process.
var rowSeed = maphash.MakeSeed()

// rowHash hashes a row cell by cell; equal rows hash equal, and
// diffRows confirms every hash match by comparing the cells.
func rowHash(r []string) uint64 {
	h := uint64(len(r))
	for _, c := range r {
		h = (h ^ maphash.String(rowSeed, c)) * 0x100000001b3
	}
	return h
}

// sessionView returns the session's target view and its display rows.
// The rows are rendered once per view relation (TargetView returns the
// same relation until the session's state changes) and shared with the
// watch's diff base; nobody mutates them. The caller holds sess.mu.
func sessionView(ctx context.Context, sess *Session) (*relation.Relation, [][]string, error) {
	view, err := sess.tool.TargetView(ctx)
	if err != nil {
		return nil, nil, err
	}
	if view != sess.viewRel {
		sess.viewRel, sess.viewRows = view, renderRows(view)
	}
	return view, sess.viewRows, nil
}

// renderRows renders a relation's tuples as display-string rows.
func renderRows(view *relation.Relation) [][]string {
	rows := make([][]string, 0, view.Len())
	for _, t := range view.Tuples() {
		row := make([]string, 0, view.Scheme().Arity())
		for i := 0; i < view.Scheme().Arity(); i++ {
			row = append(row, t.At(i).String())
		}
		rows = append(rows, row)
	}
	return rows
}

// publishWatch feeds the session's watch (if one exists) after a
// successful op. The view snapshot runs on a detached context carrying
// only the request's trace ID: watchers must not consume the request's
// budget or inherit its deadline, but the event must still correlate
// with the op's trace. The caller holds sess.mu.
func (s *Server) publishWatch(ctx context.Context, sess *Session, op string) {
	w := sess.watch
	if w == nil {
		return
	}
	vctx := obs.WithTraceID(context.Background(), obs.TraceID(ctx))
	_, rows, err := sessionView(vctx, sess)
	w.publish(op, obs.TraceID(ctx), obs.GetNote(ctx, "dg_maint"), rows, err)
}

// handleWatch long-polls for view deltas. Query parameters: after (the
// last seq the client has seen, default 0) and wait_ms (how long to
// block when nothing is newer, default 0 = answer immediately). The
// response is {"events": [...], "next": N}; pass next as the following
// poll's after. The wait happens without any session lock held, so
// watchers never block operations.
func (s *Server) handleWatch(ctx context.Context, r *http.Request) (any, error) {
	cWatchPolls.Inc()
	sess, err := s.session(r)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	if sess.gone {
		sess.mu.Unlock()
		return nil, notFound("no session %q", sess.ID)
	}
	if sess.tool == nil {
		sess.mu.Unlock()
		return nil, badRequest("session %s has no tool", sess.ID)
	}
	sess.touch()
	if sess.watch == nil {
		sess.watch = newSessionWatch()
		// Baseline on the request's own context: the first watcher pays
		// for the initial snapshot under its own budget. On error the
		// baseline stays empty and the first event reports every row as
		// added — safe, just verbose.
		if _, rows, verr := sessionView(ctx, sess); verr == nil {
			sess.watch.setBaseline(rows)
		}
	}
	w := sess.watch
	sess.mu.Unlock()

	after, _ := strconv.ParseInt(r.URL.Query().Get("after"), 10, 64)
	waitMS, _ := strconv.ParseInt(r.URL.Query().Get("wait_ms"), 10, 64)
	wait := time.Duration(waitMS) * time.Millisecond
	if wait > maxWatchWait {
		wait = maxWatchWait
	}
	deadline := time.Now().Add(wait)
	for {
		events, seq, notify := w.since(after)
		// A cursor ahead of the feed belongs to a feed that restarted
		// (journal replay or resurrect number events from 0 again): no
		// wait could bring its events, so answer at once with next.
		if len(events) > 0 || wait <= 0 || after > seq {
			if events == nil {
				events = []watchEvent{}
			}
			return map[string]any{"events": events, "next": seq}, nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return map[string]any{"events": []watchEvent{}, "next": seq}, nil
		}
		timer := time.NewTimer(remain)
		select {
		case <-notify:
			timer.Stop()
		case <-timer.C:
		case <-ctx.Done():
			// Answer the poll cleanly at the request deadline; the
			// client re-arms and nothing was lost (events are pulled by
			// sequence number, not pushed).
			timer.Stop()
			return map[string]any{"events": []watchEvent{}, "next": seq}, nil
		}
	}
}
