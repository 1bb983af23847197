package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// callTraced issues a JSON request and returns the response's
// X-Clio-Trace header alongside the decoded body.
func callTraced(t *testing.T, ts *httptest.Server, method, path string, body any) (string, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d, body %v", method, path, resp.StatusCode, out)
	}
	return resp.Header.Get("X-Clio-Trace"), out
}

// watchEvents decodes the watch response's event list.
func watchEvents(t *testing.T, out map[string]any) []map[string]any {
	t.Helper()
	raw, ok := out["events"].([]any)
	if !ok {
		t.Fatalf("watch response has no events list: %v", out)
	}
	evs := make([]map[string]any, 0, len(raw))
	for _, e := range raw {
		evs = append(evs, e.(map[string]any))
	}
	return evs
}

// A row edit publishes one watch event carrying the op name, the
// originating request's trace ID (the same one in the response header
// and the retained trace index), the D(G) maintenance disposition,
// and the rows the edit added to the target view.
func TestWatchEventCarriesTraceDispositionAndDelta(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := newPaperSession(t, ts)
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/corr",
		map[string]any{"spec": "Children.ID -> Kids.ID"})

	// Prime the watch: baseline only, no events yet.
	out := mustCall(t, ts, "GET", "/api/sessions/"+id+"/watch", nil)
	if evs := watchEvents(t, out); len(evs) != 0 {
		t.Fatalf("fresh watch already has %d events", len(evs))
	}

	trace, _ := callTraced(t, ts, "POST", "/api/sessions/"+id+"/rows",
		map[string]any{"relation": "Children", "values": []string{"012", "Nina", "8", "100", "101", "d3"}})
	if trace == "" {
		t.Fatal("rows response carried no X-Clio-Trace header")
	}

	out = mustCall(t, ts, "GET", "/api/sessions/"+id+"/watch?after=0", nil)
	evs := watchEvents(t, out)
	if len(evs) != 1 {
		t.Fatalf("after one edit: %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev["op"] != "rows" {
		t.Errorf("event op = %v, want rows", ev["op"])
	}
	if ev["trace"] != trace {
		t.Errorf("event trace %v does not match the request's %s", ev["trace"], trace)
	}
	switch ev["disposition"] {
	case "delta", "recompute":
	default:
		t.Errorf("event disposition = %v, want delta or recompute", ev["disposition"])
	}
	added, _ := ev["added"].([]any)
	if len(added) == 0 {
		t.Fatalf("insert event reports no added rows: %v", ev)
	}
	// The added row carries the inserted key (only ID is mapped here).
	found := false
	for _, r := range added {
		for _, cell := range r.([]any) {
			if cell == "012" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("added rows %v do not contain the inserted tuple", added)
	}

	// Deleting the row again reports it as removed — and a second edit
	// on a primed materialization takes the delta path.
	_, _ = callTraced(t, ts, "POST", "/api/sessions/"+id+"/rows",
		map[string]any{"relation": "Children", "values": []string{"012", "Nina", "8", "100", "101", "d3"}, "delete": true})
	next := int64(out["next"].(float64))
	out = mustCall(t, ts, "GET", "/api/sessions/"+id+"/watch?after="+jsonNum(next), nil)
	evs = watchEvents(t, out)
	if len(evs) != 1 {
		t.Fatalf("after delete: %d new events, want 1", len(evs))
	}
	if evs[0]["disposition"] != "delta" {
		t.Errorf("primed delete disposition = %v, want delta", evs[0]["disposition"])
	}
	removed, _ := evs[0]["removed"].([]any)
	if len(removed) == 0 {
		t.Fatalf("delete event reports no removed rows: %v", evs[0])
	}
}

func jsonNum(n int64) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// A long-poll parked on the watch endpoint wakes promptly when an edit
// lands, instead of sleeping out its full wait.
func TestWatchLongPollWakesOnEdit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := newPaperSession(t, ts)
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/corr",
		map[string]any{"spec": "Children.ID -> Kids.ID"})
	mustCall(t, ts, "GET", "/api/sessions/"+id+"/watch", nil) // prime

	type result struct {
		evs     []map[string]any
		elapsed time.Duration
	}
	done := make(chan result, 1)
	go func() {
		start := time.Now()
		out := mustCall(t, ts, "GET", "/api/sessions/"+id+"/watch?after=0&wait_ms=10000", nil)
		done <- result{watchEvents(t, out), time.Since(start)}
	}()
	time.Sleep(100 * time.Millisecond) // let the poll park
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/rows",
		map[string]any{"relation": "Children", "values": []string{"013", "Omar", "9", "102", "103", "d1"}})
	select {
	case res := <-done:
		if len(res.evs) == 0 {
			t.Fatal("long-poll woke without events")
		}
		if res.elapsed > 5*time.Second {
			t.Fatalf("long-poll took %v, should have woken on the edit", res.elapsed)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("long-poll never returned after the edit")
	}
}

// An immediate poll with wait_ms=0 and no news answers 200 with an
// empty event list, and a bogus session 404s.
func TestWatchImmediatePollAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := newPaperSession(t, ts)
	out := mustCall(t, ts, "GET", "/api/sessions/"+id+"/watch?wait_ms=0", nil)
	if evs := watchEvents(t, out); len(evs) != 0 {
		t.Fatalf("idle watch returned %d events", len(evs))
	}
	if status, _ := call(t, ts, "GET", "/api/sessions/zzz/watch", nil); status != http.StatusNotFound {
		t.Fatalf("watch on missing session: status %d, want 404", status)
	}
	// Rows error paths: deleting an absent row is a client error (the
	// instance is untouched), and an unknown relation 404s.
	if status, _ := call(t, ts, "POST", "/api/sessions/"+id+"/rows",
		map[string]any{"relation": "Children", "values": []string{"999", "Nobody", "1", "2", "3", "d9"}, "delete": true}); status != http.StatusUnprocessableEntity {
		t.Fatalf("delete of absent row: status %d, want 422", status)
	}
	if status, _ := call(t, ts, "POST", "/api/sessions/"+id+"/rows",
		map[string]any{"relation": "Nope", "values": []string{"1"}}); status != http.StatusNotFound {
		t.Fatalf("rows on unknown relation: status %d, want 404", status)
	}
}

// Journal-replay equivalence for the edit loop: a session that
// inserted AND deleted rows replays byte-identically after a restart —
// the replayed ApplyRows edits walk the same maintenance path and the
// canonical D(G) order keeps the rendered view stable.
func TestJournalReplayRowDeletesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JournalDir: dir}
	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	id := newPaperSession(t, ts1)
	mustCall(t, ts1, "POST", "/api/sessions/"+id+"/corr",
		map[string]any{"spec": "Children.ID -> Kids.ID"})
	mustCall(t, ts1, "POST", "/api/sessions/"+id+"/walk",
		map[string]any{"from": "Children", "to": "PhoneDir"})
	mustCall(t, ts1, "POST", "/api/sessions/"+id+"/rows",
		map[string]any{"relation": "Children", "values": []string{"012", "Nina", "8", "100", "101", "d3"}})
	mustCall(t, ts1, "POST", "/api/sessions/"+id+"/rows",
		map[string]any{"relation": "Children", "values": []string{"013", "Omar", "9", "102", "103", "d1"}})
	out := mustCall(t, ts1, "POST", "/api/sessions/"+id+"/rows",
		map[string]any{"relation": "Children", "values": []string{"012", "Nina", "8", "100", "101", "d3"}, "delete": true})
	if out["deleted"] != true {
		t.Fatalf("delete response missing deleted flag: %v", out)
	}
	want := sessionFingerprint(t, s1, ts1, id)
	ts1.Close()

	s2 := New(cfg)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	got := sessionFingerprint(t, s2, ts2, id)
	for _, key := range []string{"oplog", "view", "status"} {
		if got[key] != want[key] {
			t.Errorf("replay with deletes differs in %s:\n--- want\n%v\n--- got\n%v",
				key, want[key], got[key])
		}
	}
}

// diffRows is a multiset difference keyed on whole rows: cell contents
// — including the unit separator a rows body may carry — never make
// two different rows look alike.
func TestDiffRowsMultisetAndCellBoundaries(t *testing.T) {
	cases := []struct {
		name                 string
		old, new             [][]string
		wantAdded, wantRemov [][]string
	}{
		{"unit separator inside cells",
			[][]string{{"a\x1fb", "c"}}, [][]string{{"a", "b\x1fc"}},
			[][]string{{"a", "b\x1fc"}}, [][]string{{"a\x1fb", "c"}}},
		{"empty cells shift",
			[][]string{{"", "x"}}, [][]string{{"x", ""}},
			[][]string{{"x", ""}}, [][]string{{"", "x"}}},
		{"duplicates count",
			[][]string{{"1"}, {"1"}, {"2"}}, [][]string{{"1"}, {"3"}},
			[][]string{{"3"}}, [][]string{{"1"}, {"2"}}},
		{"unchanged", [][]string{{"1", "2"}}, [][]string{{"1", "2"}}, nil, nil},
	}
	for _, c := range cases {
		added, removed := diffRows(c.old, c.new)
		if !reflect.DeepEqual(added, c.wantAdded) || !reflect.DeepEqual(removed, c.wantRemov) {
			t.Errorf("%s: added %q removed %q, want %q and %q", c.name, added, removed, c.wantAdded, c.wantRemov)
		}
	}
}

// diffRowsByKey is the keyed multiset diff diffRows replaced, kept as
// its reference: count every row of each side by its length-framed
// key, then report the surplus rows of each side in order.
func diffRowsByKey(old, new [][]string) (added, removed [][]string) {
	key := func(r []string) string {
		var b strings.Builder
		for _, c := range r {
			l := uint32(len(c))
			b.Write([]byte{byte(l >> 24), byte(l >> 16), byte(l >> 8), byte(l)})
			b.WriteString(c)
		}
		return b.String()
	}
	surplus := func(from, against [][]string) (out [][]string) {
		n := make(map[string]int, len(against))
		for _, r := range against {
			n[key(r)]++
		}
		for _, r := range from {
			if k := key(r); n[k] > 0 {
				n[k]--
			} else {
				out = append(out, r)
			}
		}
		return out
	}
	return surplus(new, old), surplus(old, new)
}

// diffRows returns exactly the rows, in the same order, that the keyed
// reference does, over random row lists with duplicates, shared
// prefixes, empty cells, ragged rows and "\x1f" bytes.
func TestDiffRowsMatchesKeyedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cell := func() string {
		return []string{"", "a", "b", "a\x1f", "\x1fb", "a\x1fb", "-", "0"}[rng.Intn(8)]
	}
	row := func() []string {
		r := make([]string, 1+rng.Intn(3))
		for i := range r {
			r[i] = cell()
		}
		return r
	}
	rows := func(n int) [][]string {
		out := make([][]string, n)
		for i := range out {
			out[i] = row()
		}
		return out
	}
	for i := 0; i < 3000; i++ {
		prefix := rows(rng.Intn(6))
		old := append(append([][]string{}, prefix...), rows(rng.Intn(8))...)
		new := append(append([][]string{}, prefix...), rows(rng.Intn(8))...)
		if rng.Intn(4) == 0 {
			// The same rows reordered, or with one row repeated.
			new = append([][]string{}, old...)
			rng.Shuffle(len(new), func(a, b int) { new[a], new[b] = new[b], new[a] })
			if len(old) > 0 {
				new = append(new, old[rng.Intn(len(old))])
			}
		}
		added, removed := diffRows(old, new)
		wantAdded, wantRemoved := diffRowsByKey(old, new)
		if !reflect.DeepEqual(added, wantAdded) || !reflect.DeepEqual(removed, wantRemoved) {
			t.Fatalf("diffRows(%q, %q) = %q, %q; reference %q, %q", old, new, added, removed, wantAdded, wantRemoved)
		}
	}
}

// rowsOf decodes a JSON array of rows (a view's rows, an event's added
// or removed rows); nil when it is absent or empty.
func rowsOf(v any) [][]string {
	raw, _ := v.([]any)
	var rows [][]string
	for _, r := range raw {
		var row []string
		for _, c := range r.([]any) {
			row = append(row, c.(string))
		}
		rows = append(rows, row)
	}
	return rows
}

// On a watched session, every op's event reports exactly the rows the
// keyed reference diff finds between the GET view bodies before and
// after the op, and two GET views with no op between answer the same
// body.
func TestWatchEventsMatchViewDiffs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := newPaperSession(t, ts)
	base := "/api/sessions/" + id
	mustCall(t, ts, "POST", base+"/corr", map[string]any{"spec": "Children.ID -> Kids.ID"})
	mustCall(t, ts, "POST", base+"/corr", map[string]any{"spec": "Children.name -> Kids.name"})
	mustCall(t, ts, "POST", base+"/walk", map[string]any{"from": "Children", "to": "PhoneDir"})
	mustCall(t, ts, "GET", base+"/watch", nil)
	prev := mustCall(t, ts, "GET", base+"/view", nil)
	kid := []string{"012", "Nina", "8", "100", "101", "d3"}
	steps := []struct {
		op   string
		body map[string]any
	}{
		{"rows", map[string]any{"relation": "Children", "values": kid}},
		{"rows", map[string]any{"relation": "PhoneDir", "values": []string{"101", "cell", "555-0199"}}},
		{"filter", map[string]any{"kind": "source", "pred": "Children.age < 9"}},
		{"rows", map[string]any{"relation": "Children", "values": []string{"013", "Omar", "5", "102", "103", "d1"}}},
		{"undo", nil},
		{"accept", nil},
		{"rows", map[string]any{"relation": "Children", "values": kid, "delete": true}},
		{"filter", map[string]any{"kind": "target", "pred": "Kids.name <> 'Ann'"}},
		{"undo", nil},
	}
	next, added, removed := int64(0), 0, 0
	for i, s := range steps {
		mustCall(t, ts, "POST", base+"/"+s.op, s.body)
		out := mustCall(t, ts, "GET", base+"/watch?after="+jsonNum(next), nil)
		next = int64(out["next"].(float64))
		evs := watchEvents(t, out)
		if len(evs) != 1 || evs[0]["op"] != s.op {
			t.Fatalf("step %d (%s): events %v, want one %s event", i, s.op, evs, s.op)
		}
		cur := mustCall(t, ts, "GET", base+"/view", nil)
		if again := mustCall(t, ts, "GET", base+"/view", nil); !reflect.DeepEqual(again, cur) {
			t.Fatalf("step %d (%s): a repeated GET view answered differently", i, s.op)
		}
		wantAdded, wantRemoved := diffRowsByKey(rowsOf(prev["rows"]), rowsOf(cur["rows"]))
		if got := rowsOf(evs[0]["added"]); !reflect.DeepEqual(got, wantAdded) {
			t.Errorf("step %d (%s): added %q, view diff %q", i, s.op, got, wantAdded)
		}
		if got := rowsOf(evs[0]["removed"]); !reflect.DeepEqual(got, wantRemoved) {
			t.Errorf("step %d (%s): removed %q, view diff %q", i, s.op, got, wantRemoved)
		}
		if n := int(evs[0]["rows"].(float64)); n != len(rowsOf(cur["rows"])) {
			t.Errorf("step %d (%s): event counts %d rows, view has %d", i, s.op, n, len(rowsOf(cur["rows"])))
		}
		added, removed = added+len(wantAdded), removed+len(wantRemoved)
		prev = cur
	}
	if added == 0 || removed == 0 {
		t.Fatalf("the steps added %d and removed %d view rows; want both", added, removed)
	}
}

// A feed restarts at seq 0 when journal replay rebuilds the session. A
// client polling with its old, larger cursor gets an immediate answer
// carrying the restarted feed's next, instead of parking for its whole
// wait while the feed counts up from 0 beneath it.
func TestWatchCursorAheadOfFeedAnswersAtOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JournalDir: dir}
	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	id := newPaperSession(t, ts1)
	base := "/api/sessions/" + id
	mustCall(t, ts1, "POST", base+"/corr", map[string]any{"spec": "Children.ID -> Kids.ID"})
	mustCall(t, ts1, "GET", base+"/watch", nil)
	for _, kid := range []string{"012", "013", "014"} {
		mustCall(t, ts1, "POST", base+"/rows",
			map[string]any{"relation": "Children", "values": []string{kid, "Kid", "8", "100", "101", "d3"}})
	}
	cursor := int64(mustCall(t, ts1, "GET", base+"/watch", nil)["next"].(float64))
	if cursor != 3 {
		t.Fatalf("cursor after three edits = %d, want 3", cursor)
	}
	ts1.Close()

	s2 := New(cfg)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	mustCall(t, ts2, "GET", base+"/watch", nil) // the replayed session's feed starts over
	mustCall(t, ts2, "POST", base+"/rows",
		map[string]any{"relation": "Children", "values": []string{"015", "Kid", "8", "100", "101", "d3"}})
	start := time.Now()
	out := mustCall(t, ts2, "GET", base+"/watch?after="+jsonNum(cursor)+"&wait_ms=3000", nil)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("poll ahead of the feed parked for %v", elapsed)
	}
	if evs := watchEvents(t, out); len(evs) != 0 {
		t.Errorf("poll ahead of the feed returned events %v", evs)
	}
	if next := int64(out["next"].(float64)); next != 1 {
		t.Errorf("next = %d, want the restarted feed's 1", next)
	}
}

// A row edit reaches the chase, and a journal-replayed session answers
// the chase as the live one did: the replayed rows op updates the value
// index exactly like the original.
func TestJournalReplayChaseSeesRowEdits(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JournalDir: dir}
	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	id := newPaperSession(t, ts1)
	mustCall(t, ts1, "POST", "/api/sessions/"+id+"/corr",
		map[string]any{"spec": "Children.ID -> Kids.ID"})
	mustCall(t, ts1, "POST", "/api/sessions/"+id+"/rows",
		map[string]any{"relation": "SBPS", "values": []string{"777", "-", "-"}})
	chase := map[string]any{"column": "Children.ID", "value": "777"}
	live := mustCall(t, ts1, "POST", "/api/sessions/"+id+"/chase", chase)
	if ws, _ := live["workspaces"].([]any); len(ws) != 1 {
		t.Fatalf("chase after the insert offers %v, want one workspace", live["workspaces"])
	}
	want := sessionFingerprint(t, s1, ts1, id)
	ts1.Close()

	s2 := New(cfg)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	got := sessionFingerprint(t, s2, ts2, id)
	if !reflect.DeepEqual(got["workspaces"], want["workspaces"]) || got["oplog"] != want["oplog"] {
		t.Fatalf("replayed session differs:\n--- want\n%v\n%v\n--- got\n%v\n%v",
			want["workspaces"], want["oplog"], got["workspaces"], got["oplog"])
	}
	// Undo the chase and ask again on the replayed server; only the
	// workspace IDs, which count up per session, may differ.
	mustCall(t, ts2, "POST", "/api/sessions/"+id+"/undo", nil)
	again := mustCall(t, ts2, "POST", "/api/sessions/"+id+"/chase", chase)
	withoutIDs := func(ws any) []any {
		var out []any
		list, _ := ws.([]any)
		for _, w := range list {
			m := map[string]any{}
			for k, v := range w.(map[string]any) {
				if k != "id" {
					m[k] = v
				}
			}
			out = append(out, m)
		}
		return out
	}
	if a, b := withoutIDs(again["workspaces"]), withoutIDs(live["workspaces"]); !reflect.DeepEqual(a, b) {
		t.Fatalf("replayed chase offers %v, live session offered %v", a, b)
	}
}
