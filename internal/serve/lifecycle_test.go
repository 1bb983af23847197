package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"clio/internal/fault"
	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/workspace"
)

// driveOps applies n successful journaled operations: a correspondence,
// a walk, and distinct row inserts for the remainder.
func driveOps(t *testing.T, ts *httptest.Server, id string, n int) {
	t.Helper()
	if n < 2 {
		t.Fatalf("driveOps needs n >= 2, got %d", n)
	}
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/corr",
		map[string]any{"spec": "Children.ID -> Kids.ID"})
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/walk",
		map[string]any{"from": "Children", "to": "PhoneDir"})
	for i := 0; i < n-2; i++ {
		kid := strconv.Itoa(900 + i)
		mustCall(t, ts, "POST", "/api/sessions/"+id+"/rows",
			map[string]any{"relation": "Children",
				"values": []string{kid, "Kid" + kid, "9", "800", "801", "d9"}})
	}
}

// backdate marks a session idle since d ago, so a reapIdle pass sees it
// as expired without the test sleeping through a real TTL.
func backdate(t *testing.T, s *Server, id string, d time.Duration) {
	t.Helper()
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		t.Fatalf("no session %s to backdate", id)
	}
	sess.mu.Lock()
	sess.lastUsed = time.Now().Add(-d)
	sess.mu.Unlock()
}

// countKinds tallies journal record kinds for one session file.
func countKinds(t *testing.T, dir, id string) (total int, kinds map[string]int) {
	t.Helper()
	recs, corrupt, err := workspace.ReadJournal(workspace.JournalPath(dir, id))
	if err != nil {
		t.Fatalf("read journal %s: %v", id, err)
	}
	if corrupt > 0 {
		t.Fatalf("journal %s: %d corrupt records", id, corrupt)
	}
	kinds = map[string]int{}
	for _, r := range recs {
		kinds[r.Kind]++
	}
	return len(recs), kinds
}

// Snapshot compaction bounds replay: with snapshot interval k, a
// session that performed N >= 4k operations keeps at most k+1 journal
// records at rest, and a kill -9 restart restores it byte-identically
// from that bounded journal.
func TestChaosSnapshotBoundsReplay(t *testing.T) {
	const k = 4
	const n = 4 * k // ops, well past several snapshot cycles
	dir := t.TempDir()
	cfg := Config{JournalDir: dir, SnapshotEvery: k}

	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	id := newPaperSession(t, ts1)
	driveOps(t, ts1, id, n)
	want := sessionFingerprint(t, s1, ts1, id)

	total, kinds := countKinds(t, dir, id)
	if total > k+1 {
		t.Errorf("journal holds %d records after %d ops, want <= %d (snapshot compaction)", total, n, k+1)
	}
	if kinds["snapshot"] == 0 {
		t.Errorf("journal has no snapshot record after %d ops (kinds %v)", n, kinds)
	}
	if kinds["create"] != 1 {
		t.Errorf("journal create records = %d, want 1", kinds["create"])
	}

	// Kill -9: stop serving without Shutdown; journals stay open-ended.
	ts1.Close()

	s2 := New(cfg)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	got := sessionFingerprint(t, s2, ts2, id)
	for _, key := range []string{"oplog", "view", "status"} {
		if got[key] != want[key] {
			t.Errorf("replay from snapshot differs in %s:\n--- want\n%v\n--- got\n%v",
				key, want[key], got[key])
		}
	}
	// The restored session is live and keeps snapshotting: one more
	// full interval must trigger a fresh snapshot, not unbounded growth.
	for i := 0; i < k; i++ {
		kid := strconv.Itoa(950 + i)
		mustCall(t, ts2, "POST", "/api/sessions/"+id+"/rows",
			map[string]any{"relation": "Children",
				"values": []string{kid, "Kid" + kid, "9", "800", "801", "d9"}})
	}
	if total, _ := countKinds(t, dir, id); total > k+1 {
		t.Errorf("restored session journal grew to %d records, want <= %d", total, k+1)
	}
}

// Idle expiry tombstones a session into the archive and resurrect
// brings it back byte-identically — including across a server restart
// while archived.
func TestChaosIdleExpiryResurrect(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JournalDir: dir, IdleTTL: time.Hour, SnapshotEvery: 4}

	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	id := newPaperSession(t, ts1)
	keep := newPaperSession(t, ts1) // stays busy, must survive the reap
	driveOps(t, ts1, id, 6)
	driveOps(t, ts1, keep, 2)
	want := sessionFingerprint(t, s1, ts1, id)

	// Expire only the idle session.
	backdate(t, s1, id, 2*time.Hour)
	s1.reapIdle(time.Now())

	listed := mustCall(t, ts1, "GET", "/api/sessions", nil)["sessions"].([]any)
	if len(listed) != 1 || listed[0] != keep {
		t.Fatalf("live sessions after reap: %v, want [%s]", listed, keep)
	}
	if status, _ := call(t, ts1, "GET", "/api/sessions/"+id+"/status", nil); status != http.StatusNotFound {
		t.Errorf("expired session answers %d, want 404", status)
	}
	archived := mustCall(t, ts1, "GET", "/api/sessions/archived", nil)["archived"].([]any)
	if len(archived) != 1 || archived[0] != id {
		t.Fatalf("archived list %v, want [%s]", archived, id)
	}

	// The tombstone survives a kill -9 restart: still archived, not live.
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2 := New(cfg)
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Shutdown(context.Background())
	}()
	archived = mustCall(t, ts2, "GET", "/api/sessions/archived", nil)["archived"].([]any)
	if len(archived) != 1 || archived[0] != id {
		t.Fatalf("archive lost across restart: %v, want [%s]", archived, id)
	}
	for _, live := range mustCall(t, ts2, "GET", "/api/sessions", nil)["sessions"].([]any) {
		if live == id {
			t.Fatalf("archived session %s came back live without resurrect", id)
		}
	}

	// Resurrect: byte-identical state, fully live again.
	out := mustCall(t, ts2, "POST", "/api/sessions/"+id+"/resurrect", nil)
	if out["resurrected"] != true || out["id"] != id {
		t.Fatalf("resurrect answered %v", out)
	}
	got := sessionFingerprint(t, s2, ts2, id)
	for _, key := range []string{"oplog", "view", "status"} {
		if got[key] != want[key] {
			t.Errorf("resurrected session differs in %s:\n--- want\n%v\n--- got\n%v",
				key, want[key], got[key])
		}
	}
	mustCall(t, ts2, "POST", "/api/sessions/"+id+"/chase",
		map[string]any{"column": "Children.ID", "value": "002"})

	// Double resurrect conflicts; unknown IDs are 404; new sessions
	// never collide with resurrected IDs.
	if status, _ := call(t, ts2, "POST", "/api/sessions/"+id+"/resurrect", nil); status != http.StatusConflict {
		t.Errorf("resurrecting a live session: status %d, want 409", status)
	}
	if status, _ := call(t, ts2, "POST", "/api/sessions/s99/resurrect", nil); status != http.StatusNotFound {
		t.Errorf("resurrecting an unknown session: status %d, want 404", status)
	}
	if fresh := newPaperSession(t, ts2); fresh == id || fresh == keep {
		t.Errorf("new session reused ID %s", fresh)
	}
}

// A failing snapshot write must never lose acknowledged operations:
// the journal keeps its op records (unbounded but whole), requests keep
// answering 200, and a restart still replays the full state.
func TestChaosSnapshotWriteFaultKeepsServing(t *testing.T) {
	fault.Enable(chaosSeed(t))
	defer fault.Disable()
	fault.Set("journal.snapshot", fault.Spec{Mode: fault.ModeError})

	dir := t.TempDir()
	cfg := Config{JournalDir: dir, SnapshotEvery: 2}
	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	id := newPaperSession(t, ts1)
	const n = 6
	driveOps(t, ts1, id, n) // every op must still answer 200
	want := sessionFingerprint(t, s1, ts1, id)

	total, kinds := countKinds(t, dir, id)
	if kinds["snapshot"] != 0 {
		t.Errorf("snapshot record written despite injected fault (kinds %v)", kinds)
	}
	if total != n+1 {
		t.Errorf("journal holds %d records, want %d (create + every op)", total, n+1)
	}

	ts1.Close()
	fault.Disable()
	s2 := New(cfg)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	got := sessionFingerprint(t, s2, ts2, id)
	if got["oplog"] != want["oplog"] || got["view"] != want["view"] {
		t.Error("replay after snapshot faults lost state")
	}
}

// A CRC-valid snapshot whose examples name one column twice in their
// association scheme must not stop the server from booting: the
// snapshot restore fails, is logged, and the session keeps the state
// the create record produced. Building the scheme used to panic in
// New, before the server listened.
func TestReplaySurvivesSnapshotWithRepeatedColumn(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JournalDir: dir, SnapshotEvery: 2}
	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	id := newPaperSession(t, ts1)
	driveOps(t, ts1, id, 2)
	ts1.Close()

	path := workspace.JournalPath(dir, id)
	recs, _, err := workspace.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	crafted := false
	for i, rec := range recs {
		if rec.Kind != "snapshot" {
			continue
		}
		var snap sessionSnapshot
		if err := json.Unmarshal(rec.Args, &snap); err != nil {
			t.Fatal(err)
		}
		for _, ws := range snap.Tool.Workspaces {
			for _, ex := range ws.Illustration.Examples {
				for c := range ex.AssocScheme {
					ex.AssocScheme[c] = "x"
				}
				crafted = crafted || len(ex.AssocScheme) > 1
			}
		}
		if recs[i].Args, err = json.Marshal(snap); err != nil {
			t.Fatal(err)
		}
	}
	if !crafted {
		t.Fatal("the journal holds no snapshot with an example to corrupt")
	}
	// ResumeJournal rewrites the file with fresh CRCs.
	workspace.ResumeJournal(dir, id, recs, workspace.JournalOptions{}).Close()

	s2 := New(cfg)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	mustCall(t, ts2, "GET", "/api/sessions/"+id+"/workspaces", nil)
}

// A server given only a journal directory snapshots every session
// after 64 ops, the default interval, and the snapshot carries no D(G).
func TestJournalDefaultSnapshotEvery64Ops(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JournalDir: dir})
	id := newPaperSession(t, ts)
	driveOps(t, ts, id, 63)
	if total, kinds := countKinds(t, dir, id); total != 64 || kinds["snapshot"] != 0 {
		t.Fatalf("after 63 ops: %d records %v, want create + 63 ops and no snapshot", total, kinds)
	}
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/rows",
		map[string]any{"relation": "Children", "values": []string{"999", "Kid999", "9", "800", "801", "d9"}})
	recs, _, err := workspace.ReadJournal(workspace.JournalPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Kind != "create" || recs[1].Kind != "snapshot" {
		t.Fatalf("after 64 ops the journal holds %d records, want create and snapshot", len(recs))
	}
	if bytes.Contains(recs[1].Args, []byte(`"dg":`)) {
		t.Error(`the snapshot record carries a "dg" key`)
	}
}

// Replaying a journal of create, snapshot and one op builds the session
// once: the snapshot restores onto the session the create record built.
func TestReplayBuildsSnapshottedSessionOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JournalDir: dir, SnapshotEvery: 2}
	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	id := newPaperSession(t, ts1)
	driveOps(t, ts1, id, 3)
	want := sessionFingerprint(t, s1, ts1, id)
	ts1.Close()
	recs, _, err := workspace.ReadJournal(workspace.JournalPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[1].Kind != "snapshot" || recs[2].Kind != "op" {
		t.Fatalf("journal holds %d records, want create, snapshot, op", len(recs))
	}

	col := &obs.CollectExporter{}
	prev := obs.CurrentExporter()
	obs.SetExporter(col)
	defer obs.SetExporter(prev)
	s2 := New(cfg) // replays before it returns
	builds := 0
	for _, root := range col.Roots() {
		if root.Name == "workspace.new" {
			builds++
		}
	}
	if builds != 1 {
		t.Errorf("replay built the session %d times, want 1", builds)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	got := sessionFingerprint(t, s2, ts2, id)
	for _, key := range []string{"oplog", "view", "status"} {
		if got[key] != want[key] {
			t.Errorf("replayed session differs in %s:\n--- want\n%v\n--- got\n%v", key, want[key], got[key])
		}
	}
}

// A failing archive move keeps the session fully live (expiring it
// would orphan the journal); the next reap pass retires it once the
// move succeeds.
func TestChaosArchiveMoveFaultKeepsSessionLive(t *testing.T) {
	fault.Enable(chaosSeed(t))
	defer fault.Disable()
	fault.Set("journal.archive", fault.Spec{Mode: fault.ModeError, Times: 1})

	dir := t.TempDir()
	cfg := Config{JournalDir: dir, IdleTTL: time.Hour}
	s, ts := newTestServer(t, cfg)
	defer s.Shutdown(context.Background())
	id := newPaperSession(t, ts)
	driveOps(t, ts, id, 2)

	backdate(t, s, id, 2*time.Hour)
	s.reapIdle(time.Now()) // archive move fails: session must stay live
	mustCall(t, ts, "GET", "/api/sessions/"+id+"/status", nil)
	if archived := mustCall(t, ts, "GET", "/api/sessions/archived", nil)["archived"].([]any); len(archived) != 0 {
		t.Fatalf("archive list %v after failed move, want empty", archived)
	}

	backdate(t, s, id, 2*time.Hour) // the status probe above touched it
	s.reapIdle(time.Now())          // fault exhausted: tombstone lands
	if status, _ := call(t, ts, "GET", "/api/sessions/"+id+"/status", nil); status != http.StatusNotFound {
		t.Errorf("session still live after second reap: status %d, want 404", status)
	}
	if archived := mustCall(t, ts, "GET", "/api/sessions/archived", nil)["archived"].([]any); len(archived) != 1 {
		t.Errorf("archive list %v, want exactly the tombstoned session", archived)
	}
}

// Per-session budgets isolate tenants: the session whose computation
// exceeds SessionBudget gets a 413 naming the limit while a concurrent
// session's requests keep answering 200 on the same server.
func TestSessionBudgetIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{SessionBudget: fd.Budget{MaxRows: 2}})
	hog := newPaperSession(t, ts)
	quiet := newPaperSession(t, ts)

	var wg sync.WaitGroup
	errc := make(chan error, 32)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			for _, path := range []string{"/workspaces", "/status"} {
				if status, body := call(t, ts, "GET", "/api/sessions/"+quiet+path, nil); status != http.StatusOK {
					errc <- fmt.Errorf("quiet session %s: status %d body %v", path, status, body)
				}
			}
		}
	}()
	status, body := call(t, ts, "POST", "/api/sessions/"+hog+"/corr",
		map[string]any{"spec": "Children.ID -> Kids.ID"})
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget session compute: status %d body %v, want 413", status, body)
	}
	if body["limit"] != "rows" {
		t.Errorf("413 body does not name the exceeded limit: %v", body)
	}
	if _, ok := body["error"]; !ok {
		t.Errorf("413 body missing error envelope: %v", body)
	}
	// The refused session itself stays usable for cheap requests.
	mustCall(t, ts, "GET", "/api/sessions/"+hog+"/workspaces", nil)
}

// The tighter of the server-wide and per-session budgets wins, treating
// zero fields as unlimited.
func TestSessionBudgetMinComposition(t *testing.T) {
	cases := []struct {
		a, b, want fd.Budget
	}{
		{fd.Budget{}, fd.Budget{}, fd.Budget{}},
		{fd.Budget{MaxRows: 10}, fd.Budget{}, fd.Budget{MaxRows: 10}},
		{fd.Budget{}, fd.Budget{MaxRows: 5}, fd.Budget{MaxRows: 5}},
		{fd.Budget{MaxRows: 10}, fd.Budget{MaxRows: 5}, fd.Budget{MaxRows: 5}},
		{fd.Budget{MaxRows: 3, MaxBytes: 100}, fd.Budget{MaxRows: 5}, fd.Budget{MaxRows: 3, MaxBytes: 100}},
		{fd.Budget{MaxBytes: 100}, fd.Budget{MaxRows: 5, MaxBytes: 50}, fd.Budget{MaxRows: 5, MaxBytes: 50}},
	}
	for _, c := range cases {
		if got := minBudget(c.a, c.b); got != c.want {
			t.Errorf("minBudget(%+v, %+v) = %+v, want %+v", c.a, c.b, got, c.want)
		}
	}
}

// Per-session rate limits isolate tenants: a session hammering the API
// past its token bucket sees 429s carrying Retry-After and the JSON
// error envelope, while a second session's bucket is untouched.
func TestSessionRateLimitIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{SessionRPS: 1}) // burst of 1 token
	noisy := newPaperSession(t, ts)
	calm := newPaperSession(t, ts)

	const burst = 8
	var wg sync.WaitGroup
	codes := make(chan *http.Response, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + "/api/sessions/" + noisy + "/status")
			if err != nil {
				t.Error(err)
				return
			}
			codes <- resp
		}()
	}
	wg.Wait()
	close(codes)

	ok, throttled := 0, 0
	for resp := range codes {
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			throttled++
			ra := resp.Header.Get("Retry-After")
			if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
				t.Errorf("429 Retry-After = %q, want a positive integer", ra)
			}
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Errorf("429 body not JSON: %v", err)
			} else if _, ok := body["error"]; !ok {
				t.Errorf("429 body missing error envelope: %v", body)
			}
			resp.Body.Close()
			continue
		default:
			t.Errorf("unexpected status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if ok == 0 {
		t.Error("every request throttled; the bucket should admit its burst")
	}
	if throttled == 0 {
		t.Errorf("no request throttled out of %d concurrent (burst 1)", burst)
	}

	// The calm session's bucket is full: its one request sails through
	// even immediately after the noisy session saturated its own.
	mustCall(t, ts, "GET", "/api/sessions/"+calm+"/status", nil)
}
