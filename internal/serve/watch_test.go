package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
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
