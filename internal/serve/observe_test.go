package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"clio/internal/fd"
	"clio/internal/obs"
)

// lockedBuffer is an io.Writer safe for concurrent handler writes and
// test reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// get issues a bare GET and returns the response (caller closes Body),
// for tests that need headers, not just the decoded JSON.
func get(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitFor polls cond for up to a second — access-log lines and trace
// export happen in handler defers, which may complete after the client
// has already read the response.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMetricsEndpointPrometheusFormat scrapes /metrics after a real
// request and asserts the exposition contains the serve request
// counter in Prometheus text format.
func TestMetricsEndpointPrometheusFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mustCall(t, ts, "GET", "/api/stats", nil)

	resp := get(t, ts, "/metrics")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	out := body.String()
	for _, want := range []string{
		"# TYPE clio_serve_requests_total counter",
		"clio_serve_requests_total ",
		"# TYPE clio_serve_request_ns summary",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsReportJournalHistograms: after a journaled session passes
// a snapshot, /metrics reports the journal's append and fsync latency
// and its snapshot size, each counting what this session did.
func TestMetricsReportJournalHistograms(t *testing.T) {
	names := []string{"clio.journal.append.ns", "clio.journal.fsync.ns", "clio.journal.snapshot.bytes"}
	before := map[string]int64{}
	for _, name := range names {
		before[name] = obs.GetHistogram(name).Count()
	}
	_, ts := newTestServer(t, Config{JournalDir: t.TempDir(), SnapshotEvery: 2})
	id := newPaperSession(t, ts)
	driveOps(t, ts, id, 2)

	resp := get(t, ts, "/metrics")
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	for _, name := range names {
		m := obs.PromName(name)
		var count int64
		for _, line := range strings.Split(body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, m+"_count "); ok {
				count, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		if count <= before[name] {
			t.Errorf("/metrics %s_count = %d, want more than the %d before the session", m, count, before[name])
		}
	}
}

// TestTraceIDSharedByHeaderLogAndRetainedTree is the end-to-end trace
// correlation contract: one request yields one trace ID, visible in
// the X-Clio-Trace response header, the access-log line, the retained
// span tree (including the fd.Compute spans underneath), and the
// session op log.
func TestTraceIDSharedByHeaderLogAndRetainedTree(t *testing.T) {
	logBuf := &lockedBuffer{}
	s, ts := newTestServer(t, Config{AccessLog: logBuf})
	id := newPaperSession(t, ts)
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/corr",
		map[string]any{"spec": "Children.ID -> Kids.ID"})

	// The walk both mutates the mapping and is an op-logged operator:
	// its trace ID must land in the session op log.
	resp := get(t, ts, "/api/sessions/"+id+"/workspaces")
	resp.Body.Close()
	walkResp, err := ts.Client().Post(ts.URL+"/api/sessions/"+id+"/walk", "application/json",
		strings.NewReader(`{"from":"Children","to":"PhoneDir"}`))
	if err != nil {
		t.Fatal(err)
	}
	walkResp.Body.Close()
	walkTrace := walkResp.Header.Get("X-Clio-Trace")
	if walkTrace == "" {
		t.Fatal("walk response has no X-Clio-Trace header")
	}

	// The examples endpoint drives fd.Compute, so its retained tree
	// must contain engine spans. The walk above warmed the D(G) memo;
	// drop it so the examples request actually computes.
	fd.InvalidateCache()
	exResp := get(t, ts, "/api/sessions/"+id+"/examples")
	exResp.Body.Close()
	trace := exResp.Header.Get("X-Clio-Trace")
	if trace == "" {
		t.Fatal("examples response has no X-Clio-Trace header")
	}
	if trace == walkTrace {
		t.Fatal("two requests shared one trace ID")
	}

	// Access log: the examples line carries the same trace ID.
	var logLine map[string]any
	waitFor(t, "examples access-log line", func() bool {
		for _, line := range strings.Split(logBuf.String(), "\n") {
			if line == "" {
				continue
			}
			var m map[string]any
			if json.Unmarshal([]byte(line), &m) != nil {
				continue
			}
			if m["endpoint"] == "examples" && m["trace"] == trace {
				logLine = m
				return true
			}
		}
		return false
	})
	if logLine["session"] != id {
		t.Errorf("access log session = %v, want %s", logLine["session"], id)
	}
	if logLine["status"] != float64(http.StatusOK) {
		t.Errorf("access log status = %v, want 200", logLine["status"])
	}
	if logLine["dg_cache"] != "miss" {
		t.Errorf("access log dg_cache = %v, want miss on first examples", logLine["dg_cache"])
	}

	// Retained span tree: resolvable by the same ID, rooted at the
	// endpoint span, stamped with the ID, and containing the engine's
	// fd spans.
	var tr *obs.Trace
	waitFor(t, "retained trace", func() bool {
		tr = s.traces.Get(trace)
		return tr != nil
	})
	if tr.Root.Name != "serve.examples" {
		t.Errorf("retained root span = %s, want serve.examples", tr.Root.Name)
	}
	if got := obs.AttrMap(tr.Root)["trace_id"]; got != trace {
		t.Errorf("root trace_id attr = %v, want %s", got, trace)
	}
	names := obs.SpanNames(tr.Root)
	var sawCompute bool
	for _, n := range names {
		if strings.Contains(n, "/fd.compute") {
			sawCompute = true
		}
	}
	if !sawCompute {
		t.Errorf("retained tree has no fd.compute span: %v", names)
	}

	// Session op log: the walk record is stamped with the walk
	// request's trace ID.
	out := mustCall(t, ts, "GET", "/api/sessions/"+id+"/status", nil)
	oplog, _ := out["oplog"].(string)
	if !strings.Contains(oplog, "trace="+walkTrace) {
		t.Errorf("op log does not carry the walk trace %s:\n%s", walkTrace, oplog)
	}

	// A second examples call is a D(G) cache hit, and says so.
	exResp2 := get(t, ts, "/api/sessions/"+id+"/examples")
	exResp2.Body.Close()
	trace2 := exResp2.Header.Get("X-Clio-Trace")
	waitFor(t, "cached examples access-log line", func() bool {
		return strings.Contains(logBuf.String(), trace2)
	})
	if !strings.Contains(logBuf.String(), `"dg_cache":"hit"`) {
		t.Error("second examples call not logged as dg_cache hit")
	}
}

// TestHealthzReportsDraining: healthz is 200 while serving and 503
// with a draining body once shutdown begins.
func TestHealthzReportsDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, out := call(t, ts, "GET", "/healthz", nil); status != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthy healthz = %d %v", status, out)
	}
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	status, out := call(t, ts, "GET", "/healthz", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", status)
	}
	if out["status"] != "draining" {
		t.Errorf("draining healthz body = %v", out)
	}
}

// sumPlanRows walks the explain plan JSON and sums the operator rows
// attributes.
func sumPlanRows(node map[string]any) float64 {
	var sum float64
	if name, _ := node["name"].(string); strings.HasPrefix(name, "op.") {
		if attrs, ok := node["attrs"].(map[string]any); ok {
			if v, ok := attrs["rows"].(float64); ok {
				sum += v
			}
		}
	}
	if children, ok := node["children"].([]any); ok {
		for _, c := range children {
			if m, ok := c.(map[string]any); ok {
				sum += sumPlanRows(m)
			}
		}
	}
	return sum
}

// TestExplainEndpointFigure8 drives the paper scenario and checks the
// explain payload: algorithm, cache disposition, and an operator
// tree whose per-operator rows are consistent with the executed D(G).
func TestExplainEndpointFigure8(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := newPaperSession(t, ts)
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/corr",
		map[string]any{"spec": "Children.ID -> Kids.ID"})
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/walk",
		map[string]any{"from": "Children", "to": "PhoneDir"})

	// The executed row counts to match against: the examples endpoint
	// runs the same fd.Compute plan and reports D(G)'s size.
	ex := mustCall(t, ts, "GET", "/api/sessions/"+id+"/examples", nil)
	wantTuples, _ := ex["associations"].(float64)
	if wantTuples == 0 {
		t.Fatal("examples reported no associations")
	}

	out := mustCall(t, ts, "GET", "/api/sessions/"+id+"/explain", nil)
	if out["algo"] != "outer_join" {
		t.Errorf("algo = %v, want outer_join (tree-shaped walk graph)", out["algo"])
	}
	if out["cache"] != "hit" {
		t.Errorf("cache = %v, want hit (examples warmed it)", out["cache"])
	}
	if out["is_tree"] != true {
		t.Errorf("is_tree = %v, want true", out["is_tree"])
	}
	if got, _ := out["tuples"].(float64); got != wantTuples {
		t.Errorf("explain tuples = %v, want %v (executed D(G) size)", got, wantTuples)
	}
	plan, ok := out["plan"].(map[string]any)
	if !ok {
		t.Fatalf("no plan tree in explain payload: %v", out)
	}
	if plan["name"] != "fd.compute" {
		t.Errorf("plan root = %v, want fd.compute", plan["name"])
	}
	if sum := sumPlanRows(plan); sum == 0 {
		t.Error("plan operator rows sum to zero — per-operator attrs missing")
	}
	// The outer-join span's tuples attr must equal the executed D(G)
	// row count the engine reported.
	var ojTuples float64
	var walk func(map[string]any)
	walk = func(n map[string]any) {
		if n["name"] == "fd.outer_join" {
			if attrs, ok := n["attrs"].(map[string]any); ok {
				ojTuples, _ = attrs["tuples"].(float64)
			}
		}
		if children, ok := n["children"].([]any); ok {
			for _, c := range children {
				if m, ok := c.(map[string]any); ok {
					walk(m)
				}
			}
		}
	}
	walk(plan)
	if ojTuples != wantTuples {
		t.Errorf("outer_join tuples attr = %v, want %v", ojTuples, wantTuples)
	}
}

// TestStatuszAndTraceIndex covers the operational summary and the
// trace browser index/detail pair.
func TestStatuszAndTraceIndex(t *testing.T) {
	s, ts := newTestServer(t, Config{TraceBufferSize: 4})
	id := newPaperSession(t, ts)
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/corr",
		map[string]any{"spec": "Children.ID -> Kids.ID"})

	out := mustCall(t, ts, "GET", "/statusz", nil)
	if out["draining"] != false {
		t.Errorf("statusz draining = %v, want false", out["draining"])
	}
	if n, _ := out["sessions"].(float64); n != 1 {
		t.Errorf("statusz sessions = %v, want 1", n)
	}
	if _, ok := out["cache"].(map[string]any); !ok {
		t.Errorf("statusz has no cache block: %v", out)
	}
	if _, ok := out["journal_degraded"]; !ok {
		t.Errorf("statusz has no journal_degraded gauge: %v", out)
	}

	waitFor(t, "retained traces", func() bool { return s.traces.Len() > 0 })
	idx := mustCall(t, ts, "GET", "/debug/traces", nil)
	recent, _ := idx["recent"].([]any)
	if len(recent) == 0 {
		t.Fatalf("trace index empty: %v", idx)
	}
	first, _ := recent[0].(map[string]any)
	tid, _ := first["id"].(string)
	if tid == "" {
		t.Fatalf("trace summary has no id: %v", first)
	}
	detail := mustCall(t, ts, "GET", "/debug/traces/"+tid, nil)
	root, ok := detail["root"].(map[string]any)
	if !ok {
		t.Fatalf("trace detail has no root tree: %v", detail)
	}
	if name, _ := root["name"].(string); !strings.HasPrefix(name, "serve.") {
		t.Errorf("trace root %q is not an endpoint span", name)
	}
	if status, out := call(t, ts, "GET", "/debug/traces/nope", nil); status != http.StatusNotFound {
		t.Errorf("missing trace answered %d %v, want 404", status, out)
	}
}

// TestReplayOpsGetSyntheticTraceIDs restarts a journaled server and
// asserts the replayed ops are stamped with a synthetic replay trace
// ID — distinct from any live request ID and present without any
// request context (replay runs on a bare background ctx and must not
// panic).
func TestReplayOpsGetSyntheticTraceIDs(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JournalDir: dir})
	id := newPaperSession(t, ts)
	mustCall(t, ts, "POST", "/api/sessions/"+id+"/corr",
		map[string]any{"spec": "Children.ID -> Kids.ID"})
	walkResp, err := ts.Client().Post(ts.URL+"/api/sessions/"+id+"/walk", "application/json",
		strings.NewReader(`{"from":"Children","to":"PhoneDir"}`))
	if err != nil {
		t.Fatal(err)
	}
	walkResp.Body.Close()
	liveTrace := walkResp.Header.Get("X-Clio-Trace")

	// Boot a second server over the same journal directory; it replays
	// the session before serving.
	_, ts2 := newTestServer(t, Config{JournalDir: dir})
	out := mustCall(t, ts2, "GET", "/api/sessions/"+id+"/status", nil)
	oplog, _ := out["oplog"].(string)
	if !strings.Contains(oplog, "trace=replay-") {
		t.Errorf("replayed op log carries no synthetic replay trace:\n%s", oplog)
	}
	if liveTrace != "" && strings.Contains(oplog, liveTrace) {
		t.Errorf("replayed op log carries the live request trace %s:\n%s", liveTrace, oplog)
	}
}
