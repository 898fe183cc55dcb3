package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// blockingHandler parks until released, so tests control exactly how
// many requests are in flight.
type blockingHandler struct {
	entered chan struct{} // one receive per request that got a slot
	release chan struct{} // close to let every parked request finish
}

func newBlockingHandler() *blockingHandler {
	return &blockingHandler{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (b *blockingHandler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	b.entered <- struct{}{}
	<-b.release
	w.WriteHeader(http.StatusOK)
}

// blockingServer boots a test server under the admission config with
// the blocking handler registered as the admitted route /block.
func blockingServer(t *testing.T, cfg AdmissionConfig) (*Server, *blockingHandler) {
	t.Helper()
	s := newTestServer(t, WithAdmission(cfg))
	bh := newBlockingHandler()
	s.handle("block", admitted, bh.ServeHTTP, "/block")
	return s, bh
}

func TestAdmissionShedsWhenFull(t *testing.T) {
	s, bh := blockingServer(t, AdmissionConfig{MaxInFlight: 1, MaxQueued: 0})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/block", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("in-flight request got %d, want 200", rec.Code)
		}
	}()
	<-bh.entered // the slot is now held

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/block", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overload request got %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After header")
	}
	if !strings.Contains(rec.Body.String(), "queue-full") {
		t.Errorf("shed body %q does not name the reason", rec.Body.String())
	}

	close(bh.release)
	wg.Wait()
}

// TestAdmissionRetryAfterScalesWithQueue pins the derived Retry-After:
// an empty queue sheds with the base hint, a deep queue tells clients
// to back off proportionally longer, the cap bounds the hint no matter
// how deep the queue gets, and a draining node answers with the cap
// outright (it will never admit again).
func TestAdmissionRetryAfterScalesWithQueue(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInFlight: 2, MaxQueued: 100})

	if got := a.retryAfterHint("queue-full"); got != 1 {
		t.Fatalf("empty-queue hint = %d, want base 1", got)
	}
	a.queued.Store(6) // three service generations ahead of this client
	if got := a.retryAfterHint("queue-full"); got != 4 {
		t.Fatalf("queued=6 maxInFlight=2 hint = %d, want 1+6/2 = 4", got)
	}
	a.queued.Store(1000)
	if got := a.retryAfterHint("queue-full"); got != retryAfterCapFactor {
		t.Fatalf("deep-queue hint = %d, want cap %d", got, retryAfterCapFactor)
	}
	a.queued.Store(0)
	if got := a.retryAfterHint("draining"); got != retryAfterCapFactor {
		t.Fatalf("draining hint = %d, want cap %d", got, retryAfterCapFactor)
	}
	if got := a.retryAfterHint("canceled"); got != 1 {
		t.Fatalf("canceled hint = %d, want base 1", got)
	}
}

// TestAdmissionRetryAfterHeaderReflectsDepth drives the hint through
// the HTTP surface: with the only slot held and the queue holding
// waiters, a shed response's Retry-After must exceed the base hint.
func TestAdmissionRetryAfterHeaderReflectsDepth(t *testing.T) {
	s, bh := blockingServer(t, AdmissionConfig{MaxInFlight: 1, MaxQueued: 2})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/block", nil))
	}()
	<-bh.entered // slot held

	// Fill the queue: two waiters, each one service generation.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", "/block", nil))
		}()
	}
	waitFor(t, func() bool { return s.adm.queued.Load() == 2 })

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/block", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overflow request got %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q with 2 queued on 1 slot, want \"3\"", got)
	}

	close(bh.release)
	wg.Wait()
}

// waitFor polls cond until true or the test deadline closes in.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	s, bh := blockingServer(t, AdmissionConfig{MaxInFlight: 1, MaxQueued: 1})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", "/block", nil))
			if rec.Code != http.StatusOK {
				t.Errorf("request got %d, want 200", rec.Code)
			}
		}()
	}
	<-bh.entered // first holds the slot; second is queued or about to be

	// Releasing lets the first finish, which frees the slot for the
	// queued second; both must complete 200.
	close(bh.release)
	wg.Wait()
}

func TestAdmissionDrainShedsNewKeepsInFlight(t *testing.T) {
	s, bh := blockingServer(t, AdmissionConfig{MaxInFlight: 2, MaxQueued: 2})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/block", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("in-flight request got %d during drain, want 200", rec.Code)
		}
	}()
	<-bh.entered

	s.BeginDrain()

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/block", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain arrival got %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "draining") {
		t.Errorf("shed body %q does not say draining", rec.Body.String())
	}

	close(bh.release) // the pre-drain request still completes
	wg.Wait()
}

func TestServerDrainFlipsReadyz(t *testing.T) {
	s := newTestServer(t, WithAdmission(AdmissionConfig{MaxInFlight: 4, MaxQueued: 4}))

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	// Sanity: healthz is fine and a normal route is admitted pre-drain.
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d pre-drain", rec.Code)
	}
	if rec := get("/sources"); rec.Code != http.StatusOK {
		t.Fatalf("/sources = %d pre-drain", rec.Code)
	}

	s.BeginDrain()

	rec := get("/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d after BeginDrain, want 503", rec.Code)
	}
	var info struct {
		Ready    bool `json:"ready"`
		Draining bool `json:"draining"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatalf("bad /readyz JSON: %v", err)
	}
	if info.Ready || !info.Draining {
		t.Fatalf("/readyz = %+v after BeginDrain, want not-ready + draining", info)
	}

	// New work is shed, while operational endpoints stay reachable so
	// the drain itself remains observable.
	if rec := get("/sources"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/sources = %d after BeginDrain, want 503", rec.Code)
	}
	for _, path := range []string{"/healthz", "/metrics", "/stats"} {
		if rec := get(path); rec.Code != http.StatusOK {
			t.Fatalf("%s = %d after BeginDrain, want 200", path, rec.Code)
		}
	}
}
