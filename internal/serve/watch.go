package serve

import (
	"context"
	"net/http"
	"strconv"
	"strings"
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
// the order is stable across maintenance histories).
func diffRows(old, new [][]string) (added, removed [][]string) {
	oc := make(map[string]int, len(old))
	for _, r := range old {
		oc[rowKey(r)]++
	}
	for _, r := range new {
		if k := rowKey(r); oc[k] > 0 {
			oc[k]--
		} else {
			added = append(added, r)
		}
	}
	nc := make(map[string]int, len(new))
	for _, r := range new {
		nc[rowKey(r)]++
	}
	for _, r := range old {
		if k := rowKey(r); nc[k] > 0 {
			nc[k]--
		} else {
			removed = append(removed, r)
		}
	}
	return added, removed
}

// rowKey encodes a row as its cells, each prefixed by its length, so
// no cell content (a separator byte included) can make two different
// rows share a key.
func rowKey(r []string) string {
	n := 0
	for _, c := range r {
		n += 4 + len(c)
	}
	var b strings.Builder
	b.Grow(n)
	for _, c := range r {
		l := uint32(len(c))
		b.WriteByte(byte(l >> 24))
		b.WriteByte(byte(l >> 16))
		b.WriteByte(byte(l >> 8))
		b.WriteByte(byte(l))
		b.WriteString(c)
	}
	return b.String()
}

// sessionViewRows renders the session's target view as display rows.
// The caller holds sess.mu.
func sessionViewRows(ctx context.Context, sess *Session) ([][]string, error) {
	view, err := sess.tool.TargetView(ctx)
	if err != nil {
		return nil, err
	}
	return renderRows(view), nil
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
	rows, err := sessionViewRows(vctx, sess)
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
		if rows, verr := sessionViewRows(ctx, sess); verr == nil {
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
		if len(events) > 0 || wait <= 0 {
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
