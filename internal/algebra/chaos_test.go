package algebra_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"clio/internal/algebra"
	"clio/internal/fault"
	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/serve"
)

// A panic in a morsel-join worker goroutine must unwind on the request
// goroutine: the victim request answers 500 and counts clio.panics, a
// bystander session keeps answering, and the victim's next request
// succeeds — one failed request, not a dead server.
func TestChaosJoinWorkerPanicAnswers500(t *testing.T) {
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	prevCap := fd.CacheCapacity()
	// Set before the server starts so its goroutines observe the value.
	prevWorkers := algebra.SetJoinWorkers(2)
	ts := httptest.NewServer(serve.New(serve.Config{MaxInFlight: 16}).Handler())
	fd.InvalidateCache()
	t.Cleanup(func() {
		ts.Close()
		algebra.SetJoinWorkers(prevWorkers)
		fd.SetCacheCapacity(prevCap)
		fd.InvalidateCache()
		obs.SetEnabled(wasEnabled)
	})
	call := func(method, path string, body any) int {
		var data []byte
		if body != nil {
			var err error
			if data, err = json.Marshal(body); err != nil {
				t.Error(err)
				return 0
			}
		}
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(data))
		if err != nil {
			t.Error(err)
			return 0
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Error(err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	newSession := func() string {
		req, err := http.NewRequest("POST", ts.URL+"/api/sessions", bytes.NewReader([]byte(`{"source":"paper","name":"kids"}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct{ ID string }
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.ID == "" {
			t.Fatalf("create session: %v (id %q)", err, out.ID)
		}
		if code := call("POST", "/api/sessions/"+out.ID+"/corr", map[string]any{"spec": "Children.ID -> Kids.ID"}); code != http.StatusOK {
			t.Fatalf("corr: status %d", code)
		}
		return "/api/sessions/" + out.ID
	}
	victim, bystander := newSession(), newSession()
	walk := map[string]any{"from": "Children", "to": "Parents"}

	fault.Enable(1)
	defer fault.Disable()
	fault.Set("algebra.join.worker", fault.Spec{Mode: fault.ModePanic, Times: 1})
	panics := obs.GetCounter("clio.panics")
	before := panics.Value()

	// The bystander reads concurrently with the victim's join; only the
	// victim may fail.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			for _, path := range []string{"/illustration", "/workspaces", "/status"} {
				if code := call("GET", bystander+path, nil); code != http.StatusOK {
					t.Errorf("bystander %s: status %d", path, code)
				}
			}
		}
	}()
	code := call("POST", victim+"/walk", walk)
	wg.Wait()
	if code != http.StatusInternalServerError {
		t.Fatalf("walk with a panicking join worker: status %d, want 500", code)
	}
	if fault.Fired("algebra.join.worker") != 1 {
		t.Fatalf("join worker fault fired %d times, want 1", fault.Fired("algebra.join.worker"))
	}
	if got := panics.Value(); got != before+1 {
		t.Errorf("clio.panics = %d, want %d", got, before+1)
	}
	// The point is exhausted: both sessions serve the same walk again.
	for _, sess := range []string{victim, bystander} {
		if code := call("POST", sess+"/walk", walk); code != http.StatusOK {
			t.Errorf("%s walk after the contained panic: status %d, want 200", sess, code)
		}
	}
}

// lockedBuffer is an access-log sink the server's goroutines write to
// while the test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// A panic while the Grace join loads a spilled partition pair must
// fail only its request: the victim request answers 500 and counts
// clio.panics, a bystander session keeps answering 200, the victim's
// budget tracker is back at zero (its access-log line carries no
// budget charge although the panic struck three frames into a charged
// load), and no spill partition file outlives the request.
func TestChaosSpillLoadPanicAnswers500(t *testing.T) {
	// L and M share no values, and R links them (IND mining finds
	// L.k = R.a and R.b = M.k), so the walk from L to M has the single
	// alternative L—R—M. Every row repeats 4 times: the first join's
	// duplicate-multiplied output overflows the resident cap and is
	// partitioned to disk, so its join with M loads partitions back,
	// while the distinct D(G) stays at 32 tuples.
	src := t.TempDir()
	csv := map[string]string{"L.csv": "k,v\n", "R.csv": "a,b\n", "M.csv": "k,v\n"}
	for i := 0; i < 32*4; i++ {
		csv["L.csv"] += fmt.Sprintf("%d,1000\n", i%32)
		csv["R.csv"] += fmt.Sprintf("%d,%d\n", i%32, 100+i%32)
		csv["M.csv"] += fmt.Sprintf("%d,2000\n", 100+i%32)
	}
	for name, body := range csv {
		if err := os.WriteFile(filepath.Join(src, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	spillDir := t.TempDir()
	access := &lockedBuffer{}
	prevCap := fd.CacheCapacity()
	ts := httptest.NewServer(serve.New(serve.Config{
		MaxInFlight: 16,
		AccessLog:   access,
		Budget:      fd.Budget{MaxBytes: 49152, SpillDir: spillDir},
	}).Handler())
	fd.InvalidateCache()
	t.Cleanup(func() {
		ts.Close()
		fd.SetCacheCapacity(prevCap)
		fd.InvalidateCache()
	})
	call := func(method, path string, body any) (code int, out, trace string) {
		var data []byte
		if body != nil {
			var err error
			if data, err = json.Marshal(body); err != nil {
				t.Error(err)
				return 0, "", ""
			}
		}
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(data))
		if err != nil {
			t.Error(err)
			return 0, "", ""
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Error(err)
			return 0, "", ""
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), resp.Header.Get("X-Clio-Trace")
	}
	create := func(args map[string]any) string {
		code, body, _ := call("POST", "/api/sessions", args)
		var out struct{ ID string }
		if err := json.Unmarshal([]byte(body), &out); err != nil || code != http.StatusOK || out.ID == "" {
			t.Fatalf("create session: status %d, body %s", code, body)
		}
		return "/api/sessions/" + out.ID
	}
	victim := create(map[string]any{"source": src, "target": "T(a, b)", "mine": true})
	if code, body, _ := call("POST", victim+"/corr", map[string]any{"spec": "L.v -> T.a"}); code != http.StatusOK {
		t.Fatalf("corr: status %d, body %s", code, body)
	}
	bystander := create(map[string]any{"source": "paper", "name": "kids"})
	if code, body, _ := call("POST", bystander+"/corr", map[string]any{"spec": "Children.ID -> Kids.ID"}); code != http.StatusOK {
		t.Fatalf("bystander corr: status %d, body %s", code, body)
	}

	fault.Enable(1)
	defer fault.Disable()
	fault.Set("spill.read", fault.Spec{Mode: fault.ModePanic, After: 3, Times: 1})
	panics := obs.GetCounter("clio.panics")
	before := panics.Value()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			for _, path := range []string{"/illustration", "/view", "/status"} {
				if code, _, _ := call("GET", bystander+path, nil); code != http.StatusOK {
					t.Errorf("bystander %s: status %d", path, code)
				}
			}
		}
	}()
	walk := map[string]any{"from": "L", "to": "M"}
	code, body, trace := call("POST", victim+"/walk", walk)
	wg.Wait()
	if code != http.StatusInternalServerError {
		t.Fatalf("walk with a panicking partition load: status %d, want 500 (body %s)", code, body)
	}
	if fault.Fired("spill.read") != 1 {
		t.Fatalf("read fault fired %d times, want 1", fault.Fired("spill.read"))
	}
	if got := panics.Value(); got != before+1 {
		t.Errorf("clio.panics = %d, want %d", got, before+1)
	}
	// The access log names a request's outstanding budget charge; the
	// line is written just after the response, so wait for it.
	var line map[string]any
	for deadline := time.Now().Add(5 * time.Second); line == nil; {
		for _, l := range strings.Split(access.String(), "\n") {
			if strings.Contains(l, `"trace":"`+trace+`"`) {
				if err := json.Unmarshal([]byte(l), &line); err != nil {
					t.Fatalf("access log line %q: %v", l, err)
				}
			}
		}
		if line == nil && time.Now().After(deadline) {
			t.Fatalf("no access log line for trace %s:\n%s", trace, access.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if line["budget_rows"] != nil || line["budget_bytes"] != nil {
		t.Errorf("the victim's budget tracker kept a charge: %v", line)
	}
	left, _ := filepath.Glob(filepath.Join(spillDir, "clio-spill-*"))
	if len(left) != 0 {
		t.Errorf("the contained panic left spill files: %v", left)
	}
	// The point is exhausted: the same walk now succeeds.
	if code, body, _ := call("POST", victim+"/walk", walk); code != http.StatusOK {
		t.Errorf("walk after the contained panic: status %d, body %s", code, body)
	}
}
