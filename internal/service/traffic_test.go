package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
)

// Wire-behavior tests: conditional requests (ETag/304), bounded
// backpressure (429 + Retry-After), disconnect accounting, request
// cost bounds, and the batched unit endpoint.

// getH is get returning the response headers too.
func getH(t *testing.T, srv *Server, path string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), rec.Result().Header
}

func TestStudyETagRevalidatesWithoutComputing(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("campaign-computing ETag check in -short mode")
	}
	// Server A computes the campaign and hands out its ETag.
	a := newTestServer(t, "")
	code, _, hdr := getH(t, a, "/v1/study?scale=quick", nil)
	if code != http.StatusOK {
		t.Fatalf("study = %d", code)
	}
	etag := hdr.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ETag = %q, want a quoted strong tag", etag)
	}

	// Server B has computed nothing.  Revalidating against it answers
	// 304 from the tag alone — before any campaign work.
	b := newTestServer(t, "")
	code, body, _ := getH(t, b, "/v1/study?scale=quick", map[string]string{"If-None-Match": etag})
	if code != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", code)
	}
	if len(body) != 0 {
		t.Errorf("304 carried a body: %q", body)
	}
	if st := b.cacheStats(); st.Computes != 0 {
		t.Errorf("revalidation computed %d campaigns, want 0", st.Computes)
	}

	// A stale tag still gets the full (recomputed) response.
	code, _, hdr = getH(t, b, "/v1/study?scale=quick", map[string]string{"If-None-Match": `"stale"`})
	if code != http.StatusOK {
		t.Fatalf("stale revalidation = %d, want 200", code)
	}
	if hdr.Get("ETag") != etag {
		t.Errorf("ETag drifted between servers: %q vs %q", hdr.Get("ETag"), etag)
	}
}

func TestArtefactETagIdentity(t *testing.T) {
	t.Parallel()
	// ETags are pure functions of the request identity, so they can be
	// checked without computing anything.
	cfg := core.QuickScale()
	t1 := etagFor(artefactETagNamespace, artefactIdentity{Kind: "table", Name: "1", Config: cfg})
	t2 := etagFor(artefactETagNamespace, artefactIdentity{Kind: "table", Name: "2", Config: cfg})
	f1 := etagFor(artefactETagNamespace, artefactIdentity{Kind: "figure", Name: "1", Config: cfg})
	if t1 == "" || t1 == t2 {
		t.Errorf("table ETags not distinct per name: %q vs %q", t1, t2)
	}
	if t1 == f1 {
		t.Error("table and figure ETags collide for one name")
	}
	st := etagFor(studyETagNamespace, cfg)
	if st == "" || st == t1 {
		t.Errorf("study ETag %q not distinct from artefact ETags", st)
	}

	// Case-insensitive spellings of one artefact share one tag, which
	// the handlers guarantee by lowercasing the name.
	srv := newTestServer(t, "")
	code, _, h1 := getH(t, srv, "/v1/figures/bogus", nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown figure = %d, want 404", code)
	}
	if h1.Get("ETag") != "" {
		t.Error("404 carried an ETag")
	}
}

func TestBackpressureShedsPastQueueBound(t *testing.T) {
	t.Parallel()
	srv := New(Config{MaxInFlight: 1, MaxQueue: 1})
	// Occupy the only admission slot so every request queues.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	// First request queues (within MaxQueue)...
	queuedCtx, cancelQueued := context.WithCancel(context.Background())
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		req := httptest.NewRequest("GET", "/v1/study?scale=quick", nil).WithContext(queuedCtx)
		srv.ServeHTTP(httptest.NewRecorder(), req)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.waiting.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// ...the second is past the bound: shed immediately with 429 and a
	// Retry-After hint.
	code, body, hdr := getH(t, srv, "/v1/study?scale=quick", nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("request past queue bound = %d (%s), want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}

	// The queued client gives up: booked as canceled, not as an error.
	cancelQueued()
	<-queuedDone
	snap := srv.metricsSnapshot()
	var study EndpointMetrics
	for _, ep := range snap.Endpoints {
		if ep.Endpoint == "study" {
			study = ep
		}
	}
	if study.Shed != 1 {
		t.Errorf("shed = %d, want 1", study.Shed)
	}
	if study.Canceled != 1 {
		t.Errorf("canceled = %d, want 1", study.Canceled)
	}
	if study.Errors != 0 {
		t.Errorf("errors = %d; sheds and disconnects are not server errors", study.Errors)
	}
	if st := srv.cacheStats(); st.Computes != 0 {
		t.Errorf("shed/canceled requests computed %d campaigns, want 0", st.Computes)
	}
}

func TestDisconnectBeforeComputeIsNotAnError(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is gone before the handler runs
	req := httptest.NewRequest("GET", "/v1/study?scale=quick", nil).WithContext(ctx)
	srv.ServeHTTP(httptest.NewRecorder(), req)

	snap := srv.metricsSnapshot()
	for _, ep := range snap.Endpoints {
		if ep.Endpoint == "study" {
			if ep.Canceled != 1 || ep.Errors != 0 {
				t.Errorf("study metrics = %+v, want 1 canceled and 0 errors", ep)
			}
		}
	}
	if st := srv.cacheStats(); st.Computes != 0 {
		t.Errorf("canceled request computed %d campaigns, want 0", st.Computes)
	}
}

func TestSweepSamplesBound(t *testing.T) {
	t.Parallel()
	srv := New(Config{MaxSweepSamples: 1})
	if code, body := get(t, srv, "/v1/sweep?param=ce&samples=1&seed=23"); code != http.StatusOK {
		t.Errorf("samples at the bound = %d (%s), want 200", code, body)
	}
	code, body := get(t, srv, "/v1/sweep?param=ce&samples=2&seed=23")
	if code != http.StatusBadRequest {
		t.Errorf("samples past the bound = %d, want 400", code)
	}
	if !strings.Contains(string(body), "bound") {
		t.Errorf("bound rejection = %s, want the bound named", body)
	}
}

func TestRunSessionBatchEndpoint(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, t.TempDir())
	units := make([]core.StudyUnit, 3)
	for i := range units {
		units[i] = core.StudyUnit{ID: i + 1, Random: &core.SessionSpec{
			Samples:  2,
			Sampling: monitor.SampleSpec{Snapshots: 2, GapCycles: 2_000},
			Seed:     uint64(31 + i),
		}}
	}
	payload, err := json.Marshal(units)
	if err != nil {
		t.Fatal(err)
	}

	code, body := post(t, srv, "/v1/run/sessions", string(payload))
	if code != http.StatusOK {
		t.Fatalf("run/sessions = %d: %s", code, body)
	}
	var results []core.StudyUnitResult
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(units) {
		t.Fatalf("batch returned %d results for %d units", len(results), len(units))
	}

	// Each batched result is byte-identical to the single-unit
	// endpoint's answer for the same unit.
	for i, u := range units {
		uJSON, _ := json.Marshal(u)
		code, single := post(t, srv, "/v1/run/session", string(uJSON))
		if code != http.StatusOK {
			t.Fatalf("run/session unit %d = %d", i, code)
		}
		batched, _ := json.Marshal(results[i])
		if string(batched)+"\n" != string(single) {
			t.Errorf("unit %d: batched result differs from unbatched result", i)
		}
	}

	// The batch populated the per-unit cache: re-running it writes
	// nothing new.
	writes := srv.cfg.Store.Stats().Writes
	if code, _ := post(t, srv, "/v1/run/sessions", string(payload)); code != http.StatusOK {
		t.Fatal("second batch failed")
	}
	if st := srv.cfg.Store.Stats(); st.Writes != writes {
		t.Errorf("duplicate batch wrote %d new records, want 0", st.Writes-writes)
	}

	// Defective batches are rejected before any compute.
	for name, bad := range map[string]string{
		"empty":     `[]`,
		"spec-less": `[{"id":9}]`,
		"malformed": `[{"id":`,
	} {
		if code, _ := post(t, srv, "/v1/run/sessions", bad); code != http.StatusBadRequest {
			t.Errorf("%s batch = %d, want 400", name, code)
		}
	}
}

func TestRunSessionBatchSizeBound(t *testing.T) {
	t.Parallel()
	srv := New(Config{MaxBatchUnits: 2})
	unit := func(id int) core.StudyUnit {
		return core.StudyUnit{ID: id, Random: &core.SessionSpec{
			Samples:  1,
			Sampling: monitor.SampleSpec{Snapshots: 1, GapCycles: 2_000},
			Seed:     uint64(id),
		}}
	}
	over, _ := json.Marshal([]core.StudyUnit{unit(1), unit(2), unit(3)})
	code, body := post(t, srv, "/v1/run/sessions", string(over))
	if code != http.StatusBadRequest {
		t.Fatalf("oversize batch = %d (%s), want 400", code, body)
	}
	if !strings.Contains(string(body), "bound") {
		t.Errorf("oversize rejection = %s, want the bound named", body)
	}
	at, _ := json.Marshal([]core.StudyUnit{unit(1), unit(2)})
	if code, body := post(t, srv, "/v1/run/sessions", string(at)); code != http.StatusOK {
		t.Errorf("batch at the bound = %d (%s), want 200", code, body)
	}
}
