package algebra_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

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
	prevWorkers := algebra.SetVecJoinWorkers(2)
	ts := httptest.NewServer(serve.New(serve.Config{MaxInFlight: 16}).Handler())
	fd.InvalidateCache()
	t.Cleanup(func() {
		ts.Close()
		algebra.SetVecJoinWorkers(prevWorkers)
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
