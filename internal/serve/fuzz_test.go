package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"clio/internal/fd"
)

// fuzzOps are the eight state-changing ops with a valid body each,
// taken from the serve benchmark's paper-tour script (use, which that
// script does not send, names a workspace the prefix creates), and the
// body fields an input may overwrite.
var fuzzOps = []struct {
	op     string
	body   map[string]any
	fields []string
}{
	{"corr", map[string]any{"spec": "Children.name -> Kids.name"}, []string{"spec"}},
	{"walk", map[string]any{"from": "Children", "to": "PhoneDir"}, []string{"from", "to"}},
	{"chase", map[string]any{"column": "Children.ID", "value": "002"}, []string{"column", "value"}},
	{"filter", map[string]any{"kind": "target", "pred": "Kids.ID IS NOT NULL"}, []string{"kind", "pred"}},
	{"use", map[string]any{"workspace": 3}, []string{"workspace"}},
	{"accept", nil, nil},
	{"undo", nil, nil},
	{"rows", map[string]any{"relation": "Children", "values": []any{"011", "Lea", "8", "104", "", "d3"}, "delete": false},
		[]string{"relation", "values", "delete"}},
}

// fuzzPrefix runs before every fuzzed op, on a fresh paper session.
var fuzzPrefix = []struct {
	op   string
	args string
}{
	{"corr", `{"spec":"Children.ID -> Kids.ID"}`},
	{"walk", `{"from":"Children","to":"PhoneDir"}`},
}

// fuzzBody builds the op's body: the valid one (mode 0), with one field
// set to s (mode 1) or to n (mode 2), or s's raw bytes (mode 3). The
// field is field modulo the op's fields plus one slot for a field named
// s. It returns nil, false for a body the live handler would reject as
// malformed JSON before reaching applyOp.
func fuzzBody(op int, field uint8, mode uint8, s string, n int64) (json.RawMessage, bool) {
	spec := fuzzOps[op]
	if mode%4 == 3 {
		args, err := readArgs(httptest.NewRequest("POST", "/", bytes.NewReader([]byte(s))))
		return args, err == nil
	}
	body := map[string]any{}
	for k, v := range spec.body {
		body[k] = v
	}
	if mode%4 != 0 {
		var v any = s
		if mode%4 == 2 {
			v = n
		}
		name := s
		if i := int(field) % (len(spec.fields) + 1); i < len(spec.fields) {
			name = spec.fields[i]
		}
		if vals, ok := body[name].([]any); ok && mode%4 == 1 {
			vals = append([]any(nil), vals...)
			vals[uint64(n)%uint64(len(vals))] = s
			v = vals
		}
		body[name] = v
	}
	if spec.body == nil && len(body) == 0 {
		return nil, true
	}
	data, err := json.Marshal(body)
	if err != nil {
		return nil, false
	}
	return data, true
}

// fuzzSession creates a paper session and runs fuzzPrefix on it
// unbudgeted.
func fuzzSession(t *testing.T, s *Server) *Session {
	t.Helper()
	sess := &Session{ID: "fuzz"}
	ctx := context.Background()
	if _, err := s.initSession(ctx, sess, nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range fuzzPrefix {
		if _, err := s.applyOp(ctx, sess, p.op, json.RawMessage(p.args)); err != nil {
			t.Fatalf("prefix %s %s: %v", p.op, p.args, err)
		}
	}
	return sess
}

// sessionState is everything an op may change that replay must
// reproduce: the tool state without its op log (which records failed
// ops too), the /workspaces body, the view rows (or the error the view
// gives) and every relation's fingerprint.
type sessionState struct {
	Tool       string
	Workspaces string
	View       string
	Relations  map[string]uint64
}

func captureState(t *testing.T, sess *Session) sessionState {
	t.Helper()
	st, err := sess.tool.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	st.OpSeq, st.OpLog = 0, nil
	tool, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := json.Marshal(workspacesBody(sess.tool))
	if err != nil {
		t.Fatal(err)
	}
	var view string
	if _, rows, err := sessionView(context.Background(), sess); err != nil {
		view = "error: " + err.Error()
	} else {
		view = fmt.Sprint(rows)
	}
	rels := map[string]uint64{}
	for _, name := range sess.in.Names() {
		rels[name] = sess.in.Relation(name).Fingerprint()
	}
	return sessionState{Tool: string(tool), Workspaces: string(ws), View: view, Relations: rels}
}

// stateDiff names each part of two states that differs, with both
// sides around the first differing byte; it is empty when they agree.
func stateDiff(a, b sessionState) string {
	var out strings.Builder
	diff := func(part, x, y string) {
		if x == y {
			return
		}
		i := 0
		for i < len(x) && i < len(y) && x[i] == y[i] {
			i++
		}
		from := max(i-60, 0)
		fmt.Fprintf(&out, "%s at byte %d:\n  %.120s\n  %.120s\n", part, i, x[from:], y[from:])
	}
	diff("tool state", a.Tool, b.Tool)
	diff("/workspaces", a.Workspaces, b.Workspaces)
	diff("view", a.View, b.View)
	diff("relations", fmt.Sprint(a.Relations), fmt.Sprint(b.Relations))
	return out.String()
}

// FuzzApplyOp sends one of the eight state-changing ops, its body
// built by fuzzBody, through applyOp under a row cap of rowCap (0 is
// unlimited) on a session that has run fuzzPrefix. An op that fails
// must leave the session as it was; an op that succeeds must replay —
// the prefix and the op through applyOp, unbudgeted, on a second fresh
// session — to the same state.
func FuzzApplyOp(f *testing.F) {
	for op := range fuzzOps {
		f.Add(uint8(op), uint8(0), uint8(0), "", int64(0), uint8(0))
		f.Add(uint8(op), uint8(0), uint8(0), "", int64(0), uint8(20))
	}
	f.Add(uint8(0), uint8(0), uint8(1), "Parents.affiliation -> Kids.affiliation", int64(0), uint8(20))
	f.Add(uint8(7), uint8(2), uint8(2), "", int64(1), uint8(0))
	f.Add(uint8(4), uint8(0), uint8(3), `{"workspace":4}`, int64(0), uint8(0))
	s := New(Config{})
	f.Fuzz(func(t *testing.T, op, field, mode uint8, str string, n int64, rowCap uint8) {
		i := int(op) % len(fuzzOps)
		args, ok := fuzzBody(i, field, mode, str, n)
		if !ok {
			return
		}
		name := fuzzOps[i].op
		live := fuzzSession(t, s)
		before := captureState(t, live)
		ctx := context.Background()
		if rowCap > 0 {
			ctx = fd.WithBudget(ctx, fd.Budget{MaxRows: int64(rowCap)})
		}
		if _, err := s.applyOp(ctx, live, name, args); err != nil {
			if d := stateDiff(before, captureState(t, live)); d != "" {
				t.Fatalf("%s %s under %d rows failed (%v) but changed the session (before, after):\n%s", name, args, rowCap, err, d)
			}
			return
		}
		got := captureState(t, live)
		replayed := fuzzSession(t, s)
		if _, err := s.applyOp(context.Background(), replayed, name, args); err != nil {
			t.Fatalf("%s %s succeeded under %d rows but fails on replay: %v", name, args, rowCap, err)
		}
		if d := stateDiff(got, captureState(t, replayed)); d != "" {
			t.Fatalf("%s %s under %d rows replays differently (live, replayed):\n%s", name, args, rowCap, d)
		}
	})
}
