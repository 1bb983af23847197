package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"clio/internal/fault"
	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/workspace"
)

// chaosSeed pins the fault-injection seed. `make chaos` exports
// CLIO_CHAOS_SEED so a failing run can be replayed exactly; unset, the
// suite still runs with a fixed default.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("CLIO_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CLIO_CHAOS_SEED %q: %v", v, err)
		}
		return n
	}
	return 1
}

// driveSession runs a fixed, all-successful operation sequence whose
// every step is journaled.
func driveSession(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/corr",
		map[string]any{"spec": "Children.ID -> Kids.ID"})
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/walk",
		map[string]any{"from": "Children", "to": "PhoneDir"})
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/rows",
		map[string]any{"relation": "Children", "values": []string{"012", "Nina", "8", "100", "101", "d3"}})
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/accept", nil)
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/undo", nil)
}

// sessionFingerprint captures everything a client can observe about a
// session's state: canonical op log (duration-free), the workspace
// set, the WYSIWYG target view, and the status report.
func sessionFingerprint(t *testing.T, s *Server, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		t.Fatalf("no session %s on server", id)
	}
	return map[string]any{
		"oplog":      sess.tool.OpLogCanonical(),
		"workspaces": mustCall(t, ts, "GET", "/api/sessions/"+id+"/workspaces", nil),
		"view":       mustCall(t, ts, "GET", "/api/sessions/"+id+"/view", nil)["text"],
		"status":     mustCall(t, ts, "GET", "/api/sessions/"+id+"/status", nil)["status"],
	}
}

// Kill -9 + restart must recover every journaled session
// byte-identically: the replayed op log, workspace set, target view,
// and status all equal the pre-crash state — even when the crash tore
// the journal tail of one session.
func TestChaosCrashReplayRestoresSessions(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JournalDir: dir}

	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	ids := []string{newPaperSession(t, ts1), newPaperSession(t, ts1)}
	for _, id := range ids {
		driveSession(t, ts1, id)
	}
	want := map[string]map[string]any{}
	for _, id := range ids {
		want[id] = sessionFingerprint(t, s1, ts1, id)
	}
	if w, ok := want[ids[0]]["oplog"].(string); !ok || w == "" {
		t.Fatal("empty canonical op log before crash")
	}
	// Simulate kill -9: stop serving without Shutdown, never closing
	// the journals. Every append was fsynced, so the files are whole.
	ts1.Close()

	// Tear the tail of one journal, as a crash mid-append would.
	path := workspace.JournalPath(dir, ids[1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, []byte(`{"crc":1,"rec":{"kind":"op`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(cfg) // replays on construction
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	listed := mustCall(t, ts2, "GET", "/api/sessions", nil)
	if n := len(listed["sessions"].([]any)); n != len(ids) {
		t.Fatalf("restarted server lists %d sessions, want %d", n, len(ids))
	}
	for _, id := range ids {
		got := sessionFingerprint(t, s2, ts2, id)
		if got["oplog"] != want[id]["oplog"] {
			t.Errorf("session %s: replayed op log differs:\n--- want\n%s--- got\n%s",
				id, want[id]["oplog"], got["oplog"])
		}
		if got["view"] != want[id]["view"] {
			t.Errorf("session %s: replayed target view differs", id)
		}
		if got["status"] != want[id]["status"] {
			t.Errorf("session %s: replayed status differs", id)
		}
	}

	// The restored sessions are live, not read-only: new ops apply and
	// are journaled for the next crash. The ID allocator must also be
	// past the replayed IDs (no collision on the next create).
	fresh := newPaperSession(t, ts2)
	for _, id := range ids {
		if fresh == id {
			t.Fatalf("new session reused replayed ID %s", id)
		}
		mustCall(t, ts2, "POST", "/api/sessions/"+id+"/chase",
			map[string]any{"column": "Children.ID", "value": "002"})
	}
}

// A correspondence the request budget refuses after building one of
// its alternatives is not journaled, so it must not use up a workspace
// ID either: the workspace the next op creates gets the same ID live
// and after a restart replays the journal, and the two /workspaces
// bodies are byte-identical.
func TestBudgetRefusedCorrKeepsWorkspaceIDsAcrossReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JournalDir: dir, Budget: fd.Budget{MaxRows: 20}}
	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	id := newPaperSession(t, ts1)
	base := "/api/sessions/" + id
	mustCall(t, ts1, "POST", base+"/corr", map[string]any{"spec": "Children.ID -> Kids.ID"})
	mustCall(t, ts1, "POST", base+"/corr", map[string]any{"spec": "Children.name -> Kids.name"})
	if status, out := call(t, ts1, "POST", base+"/corr", map[string]any{"spec": "Parents.affiliation -> Kids.affiliation"}); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("corr under 20 rows: status %d (%v), want 413", status, out)
	}
	mustCall(t, ts1, "POST", base+"/filter", map[string]any{"kind": "target", "pred": "Kids.ID IS NOT NULL"})
	_, _, live := callRaw(t, ts1, "GET", base+"/workspaces", "")
	ts1.Close()

	s2 := New(cfg)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, _, replayed := callRaw(t, ts2, "GET", base+"/workspaces", "")
	if !bytes.Equal(live, replayed) {
		t.Fatalf("replayed /workspaces differs from live:\nlive     %s\nreplayed %s", live, replayed)
	}
}

// Persistent journal-write failures must degrade sessions to
// memory-only — requests keep answering 200, the degraded gauge rises
// — never fail or wedge the API.
func TestChaosJournalDegradeKeepsServing(t *testing.T) {
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(wasEnabled) })

	fault.Enable(chaosSeed(t))
	defer fault.Disable()
	fault.Set("journal.append", fault.Spec{Mode: fault.ModeError})

	dir := t.TempDir()
	s, ts := newTestServer(t, Config{JournalDir: dir})
	gauge := obs.GetGauge("clio.journal.degraded")
	before := gauge.Value()

	id := newPaperSession(t, ts)
	driveSession(t, ts, id)
	if gauge.Value() <= before {
		t.Errorf("clio.journal.degraded gauge did not rise: %d -> %d", before, gauge.Value())
	}
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if !sess.journal.Degraded() {
		t.Error("journal not degraded despite persistent write failure")
	}
}

// A D(G) computation that would exceed the configured budget answers
// 413 with a JSON body naming the exceeded limit; a generous budget
// changes nothing.
func TestChaosBudgetExceededAnswers413(t *testing.T) {
	_, tight := newTestServer(t, Config{Budget: fd.Budget{MaxRows: 2}})
	id := newPaperSession(t, tight)
	status, body := call(t, tight, "POST", "/api/sessions/"+id+"/corr",
		map[string]any{"spec": "Children.ID -> Kids.ID"})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget compute: status %d body %v, want 413", status, body)
	}
	if body["limit"] != "rows" {
		t.Errorf("413 body does not name the exceeded limit: %v", body)
	}
	if _, ok := body["error"]; !ok {
		t.Errorf("413 body missing error envelope: %v", body)
	}
	// The session survives the refusal and still answers.
	mustCall(t, tight, "GET", "/api/sessions/"+id+"/workspaces", nil)

	_, roomy := newTestServer(t, Config{Budget: fd.Budget{MaxRows: 1 << 20, MaxBytes: 1 << 30}})
	id2 := newPaperSession(t, roomy)
	driveSession(t, roomy, id2)
	mustCall(t, roomy, "GET", "/api/sessions/"+id2+"/examples", nil)
}

// An injected panic in the D(G) pipeline fails exactly the request
// that hit it with a 500 — concurrent requests on other sessions
// complete, the panic lands in the victim session's op log, and the
// server keeps serving afterwards.
func TestChaosPanicIsolation(t *testing.T) {
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(wasEnabled) })
	_, ts := newTestServer(t, Config{MaxInFlight: 16})

	victim := newPaperSession(t, ts)
	bystander := newPaperSession(t, ts)
	for _, id := range []string{victim, bystander} {
		mustCall(t, ts, "POST", "/api/sessions/"+id+"/corr",
			map[string]any{"spec": "Children.ID -> Kids.ID"})
	}

	fault.Enable(chaosSeed(t))
	defer fault.Disable()
	fault.Set("fd.compute", fault.Spec{Mode: fault.ModePanic, Times: 1})

	panics := obs.GetCounter("clio.panics")
	before := panics.Value()

	// The bystander hammers non-computing endpoints concurrently with
	// the victim's doomed D(G) request; only the victim may fail.
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			for _, path := range []string{"/illustration", "/workspaces", "/status"} {
				if status, body := call(t, ts, "GET", "/api/sessions/"+bystander+path, nil); status != http.StatusOK {
					errc <- fmt.Errorf("bystander %s: status %d body %v", path, status, body)
				}
			}
		}
	}()
	status, body := call(t, ts, "GET", "/api/sessions/"+victim+"/examples", nil)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("panicked compute: status %d body %v, want 500", status, body)
	}
	if _, ok := body["error"]; !ok {
		t.Errorf("500 body missing error envelope: %v", body)
	}
	if panics.Value() != before+1 {
		t.Errorf("clio.panics = %d, want %d", panics.Value(), before+1)
	}

	// The stack capture reached the victim's op log, and the point is
	// exhausted (Times: 1), so the session serves again — containment,
	// not contagion.
	oplog := mustCall(t, ts, "GET", "/api/sessions/"+victim+"/status", nil)["oplog"].(string)
	if !strings.Contains(oplog, "panic") {
		t.Errorf("victim op log has no panic record:\n%s", oplog)
	}
	mustCall(t, ts, "GET", "/api/sessions/"+victim+"/examples", nil)
	mustCall(t, ts, "GET", "/api/sessions/"+bystander+"/examples", nil)
}
