package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"clio/internal/fd"
)

// callRaw issues a request with a verbatim (possibly malformed) body
// and returns status, Content-Type, and the raw response bytes.
func callRaw(t *testing.T, ts *httptest.Server, method, path, body string) (int, string, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), data
}

// Every endpoint must answer a JSON envelope with a correct status on
// every failure path: malformed bodies are 400s, missing sessions are
// 404s, and no endpoint ever falls back to a bare text error.
func TestAllEndpointsErrorEnvelopes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := newPaperSession(t, ts)
	// Seed a mapping so the D(G)-backed GET endpoints have work to do.
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/corr",
		map[string]any{"spec": "Children.ID -> Kids.ID"})
	const malformed = `{"spec": ` // truncated JSON

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"healthz", "GET", "/healthz", "", http.StatusOK},
		{"stats", "GET", "/api/stats", "", http.StatusOK},
		{"session_create_malformed", "POST", "/api/sessions", malformed, http.StatusBadRequest},
		{"session_create_repeated_target_attr", "POST", "/api/sessions", `{"source":"paper","target":"T(a, a)"}`, http.StatusBadRequest},
		{"session_list", "GET", "/api/sessions", "", http.StatusOK},
		{"session_delete_missing", "DELETE", "/api/sessions/nope", "", http.StatusNotFound},
		{"session_archived", "GET", "/api/sessions/archived", "", http.StatusOK},
		{"resurrect_disabled", "POST", "/api/sessions/nope/resurrect", "", http.StatusBadRequest},
		{"corr_malformed", "POST", "/api/sessions/" + id + "/corr", malformed, http.StatusBadRequest},
		{"walk_malformed", "POST", "/api/sessions/" + id + "/walk", malformed, http.StatusBadRequest},
		{"chase_malformed", "POST", "/api/sessions/" + id + "/chase", malformed, http.StatusBadRequest},
		{"filter_malformed", "POST", "/api/sessions/" + id + "/filter", malformed, http.StatusBadRequest},
		{"use_malformed", "POST", "/api/sessions/" + id + "/use", malformed, http.StatusBadRequest},
		{"accept_malformed", "POST", "/api/sessions/" + id + "/accept", malformed, http.StatusBadRequest},
		{"undo_malformed", "POST", "/api/sessions/" + id + "/undo", malformed, http.StatusBadRequest},
		{"rows_malformed", "POST", "/api/sessions/" + id + "/rows", malformed, http.StatusBadRequest},
		{"corr_unknown_field", "POST", "/api/sessions/" + id + "/corr", `{"nope":1}`, http.StatusBadRequest},
		{"walk_missing_session", "POST", "/api/sessions/nope/walk", `{"from":"a","to":"b"}`, http.StatusNotFound},
		{"workspaces", "GET", "/api/sessions/" + id + "/workspaces", "", http.StatusOK},
		{"workspaces_missing", "GET", "/api/sessions/nope/workspaces", "", http.StatusNotFound},
		{"illustration", "GET", "/api/sessions/" + id + "/illustration", "", http.StatusOK},
		{"examples", "GET", "/api/sessions/" + id + "/examples", "", http.StatusOK},
		{"view", "GET", "/api/sessions/" + id + "/view", "", http.StatusOK},
		{"status", "GET", "/api/sessions/" + id + "/status", "", http.StatusOK},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, ctype, data := callRaw(t, ts, c.method, c.path, c.body)
			if status != c.want {
				t.Errorf("status %d, want %d (body %s)", status, c.want, data)
			}
			if !strings.HasPrefix(ctype, "application/json") {
				t.Errorf("Content-Type %q, want application/json", ctype)
			}
			var body map[string]any
			if err := json.Unmarshal(data, &body); err != nil {
				t.Fatalf("response is not a JSON object: %v\n%s", err, data)
			}
			if status >= 400 {
				msg, ok := body["error"].(string)
				if !ok || msg == "" {
					t.Errorf("error response missing error field: %s", data)
				}
			}
		})
	}

	// A malformed body must never have been journaled or applied: the
	// session still has exactly its initial workspace state.
	out := mustCall(t, ts, "GET", "/api/sessions/"+id+"/workspaces", nil)
	if _, ok := out["workspaces"]; !ok {
		t.Error("session state damaged by malformed requests")
	}
}

// Every 413 must name the spill configuration that applied: "disabled"
// when no spill directory is set (the operator's remedy is -spill-dir),
// "enabled" when spill ran, could not absorb the state, and recursion
// was off (the remedy is -spill-recursion-depth), "recursion_exhausted"
// when recursive re-partitioning also could not make a partition fit
// (the remedy is -max-bytes), and "disk_cap_exceeded" when
// -max-spill-bytes was the binding limit.
func TestBudget413EnvelopeNamesSpillState(t *testing.T) {
	cases := []struct {
		name      string
		budget    func(t *testing.T) fd.Budget
		wantLimit string
		wantSpill string
	}{
		{
			name:      "spill disabled",
			budget:    func(t *testing.T) fd.Budget { return fd.Budget{MaxRows: 2} },
			wantLimit: "rows",
			wantSpill: "disabled",
		},
		{
			name: "spill enabled but state does not fit, recursion off",
			budget: func(t *testing.T) fd.Budget {
				return fd.Budget{MaxBytes: 64, SpillDir: t.TempDir(), SpillRecursionDepth: -1}
			},
			wantLimit: "bytes",
			wantSpill: "enabled",
		},
		{
			name: "recursion exhausted",
			budget: func(t *testing.T) fd.Budget {
				// A 64-byte cap cannot hold even one tuple, so salted
				// re-partitioning runs to the depth limit and gives up.
				return fd.Budget{MaxBytes: 64, SpillDir: t.TempDir()}
			},
			wantLimit: "bytes",
			wantSpill: "recursion_exhausted",
		},
		{
			name: "disk cap exceeded",
			budget: func(t *testing.T) fd.Budget {
				return fd.Budget{MaxBytes: 64, SpillDir: t.TempDir(), MaxSpillBytes: 1}
			},
			wantLimit: "spill",
			wantSpill: "disk_cap_exceeded",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Budget: c.budget(t)})
			id := newPaperSession(t, ts)
			status, body := call(t, ts, "POST", "/api/sessions/"+id+"/corr",
				map[string]any{"spec": "Children.ID -> Kids.ID"})
			if status != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d body %v, want 413", status, body)
			}
			if body["limit"] != c.wantLimit {
				t.Errorf("limit = %v, want %q (body %v)", body["limit"], c.wantLimit, body)
			}
			if body["spill"] != c.wantSpill {
				t.Errorf("spill = %v, want %q (body %v)", body["spill"], c.wantSpill, body)
			}
			if _, ok := body["error"]; !ok {
				t.Errorf("413 body missing error envelope: %v", body)
			}
		})
	}
}

// 429 responses carry a Retry-After header that parses as integer
// seconds, so well-behaved clients can back off without guessing.
func TestThrottledResponseHasRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, RetryAfter: 3 * 1e9}) // 3s
	s.gate <- struct{}{}                                                   // saturate
	defer func() { <-s.gate }()

	status, ctype, data := callRaw(t, ts, "GET", "/api/sessions", "")
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429", status)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("429 Content-Type %q, want application/json", ctype)
	}
	resp, err := ts.Client().Get(ts.URL + "/api/sessions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q does not parse as integer seconds: %v", ra, err)
	}
	if secs != 3 {
		t.Errorf("Retry-After = %d, want 3", secs)
	}
	var body map[string]any
	if err := json.Unmarshal(data, &body); err != nil || body["error"] == nil {
		t.Errorf("429 body is not an error envelope: %s", data)
	}
}
