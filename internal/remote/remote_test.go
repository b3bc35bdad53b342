package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// echoUnit / echoResult are a trivial unit type for exercising the
// generic client without booting simulators.
type echoUnit struct {
	X int `json:"x"`
}

type echoResult struct {
	Y int `json:"y"`
}

func echoLocal(u echoUnit) (echoResult, error) {
	return echoResult{Y: u.X * 2}, nil
}

// echoBackend serves the echo computation, counting requests.
func echoBackend(t *testing.T, served *atomic.Int64) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var u echoUnit
		if err := json.NewDecoder(r.Body).Decode(&u); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if served != nil {
			served.Add(1)
		}
		res, _ := echoLocal(u)
		json.NewEncoder(w).Encode(res)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func units(n int) []echoUnit {
	out := make([]echoUnit, n)
	for i := range out {
		out[i] = echoUnit{X: i}
	}
	return out
}

func checkResults(t *testing.T, got []echoResult) {
	t.Helper()
	for i, r := range got {
		if r.Y != i*2 {
			t.Fatalf("out[%d] = %+v, want Y=%d", i, r, i*2)
		}
	}
}

func TestClientShardsAcrossBackends(t *testing.T) {
	t.Parallel()
	var servedA, servedB atomic.Int64
	a := echoBackend(t, &servedA)
	b := echoBackend(t, &servedB)
	c := NewClient(Config{Backends: []string{a.URL, b.URL}}, echoLocal)

	got, err := engine.RunAll(context.Background(), 0, units(24), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, got)
	st := c.Stats()
	if st.Fallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0 with live backends", st.Fallbacks)
	}
	if servedA.Load() == 0 || servedB.Load() == 0 {
		t.Errorf("work not sharded: backend A served %d, B served %d",
			servedA.Load(), servedB.Load())
	}
	if n := servedA.Load() + servedB.Load(); n < 24 {
		t.Errorf("backends served %d units, want >= 24", n)
	}
}

func TestClientReroutesAroundFailingBackend(t *testing.T) {
	t.Parallel()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "backend on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)
	var servedGood atomic.Int64
	good := echoBackend(t, &servedGood)

	c := NewClient(Config{
		Backends:    []string{bad.URL, good.URL},
		MaxFailures: 2,
	}, echoLocal)
	got, err := engine.RunAll(context.Background(), 4, units(16), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, got)
	st := c.Stats()
	var deadSeen bool
	for _, b := range st.Backends {
		if b.Addr == bad.URL {
			deadSeen = b.Dead
		}
	}
	if !deadSeen {
		t.Errorf("failing backend not marked dead: %+v", st.Backends)
	}
	if servedGood.Load() != 16 {
		t.Errorf("good backend served %d units, want all 16 rerouted", servedGood.Load())
	}
}

func TestClientFallsBackToLocalWhenAllBackendsDead(t *testing.T) {
	t.Parallel()
	// A closed server: every connection is refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	addr := dead.URL
	dead.Close()

	c := NewClient(Config{Backends: []string{addr}, MaxFailures: 1}, echoLocal)
	got, err := engine.RunAll(context.Background(), 2, units(6), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, got)
	if st := c.Stats(); st.Fallbacks != 6 {
		t.Errorf("fallbacks = %d, want all 6 units computed locally", st.Fallbacks)
	}
}

func TestClientNoBackendsComputesLocally(t *testing.T) {
	t.Parallel()
	c := NewClient(Config{}, echoLocal)
	got, err := engine.RunAll(context.Background(), 2, units(4), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, got)
	if st := c.Stats(); st.Fallbacks != 4 {
		t.Errorf("fallbacks = %d, want 4", st.Fallbacks)
	}
}

func TestClientHedgesSlowBackend(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the server only notices a client
		// disconnect (and cancels r.Context()) once the request has
		// been consumed.
		var u echoUnit
		json.NewDecoder(r.Body).Decode(&u)
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		res, _ := echoLocal(u)
		json.NewEncoder(w).Encode(res)
	}))
	t.Cleanup(func() { close(release); slow.Close() })
	fast := echoBackend(t, nil)

	c := NewClient(Config{
		Backends:   []string{slow.URL, fast.URL},
		HedgeAfter: 20 * time.Millisecond,
	}, echoLocal)
	// One unit at a time: whichever backend the unit lands on first,
	// a stalled attempt must be hedged to the other and finish fast.
	start := time.Now()
	got, err := engine.RunAll(context.Background(), 1, units(4), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, got)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("hedged run took %v", elapsed)
	}
	if st := c.Stats(); st.Hedges == 0 {
		t.Error("no hedges fired against a stalled backend")
	}
}

func TestClientRespectsContextCancel(t *testing.T) {
	t.Parallel()
	stallDone := make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // let the server watch for disconnect
		select {
		case <-r.Context().Done():
		case <-stallDone:
		}
	}))
	t.Cleanup(func() { close(stallDone); stall.Close() })
	c := NewClient(Config{Backends: []string{stall.URL}, HedgeAfter: time.Hour}, echoLocal)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.RunUnit(ctx, echoUnit{X: 1}); err == nil {
		t.Fatal("want context error from canceled unit")
	}
}

func TestParseBackends(t *testing.T) {
	t.Parallel()
	if got := ParseBackends(""); got != nil {
		t.Errorf("ParseBackends(\"\") = %v, want nil", got)
	}
	got := ParseBackends(" a:1, b:2 ,,c:3 ")
	want := []string{"a:1", "b:2", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("ParseBackends = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ParseBackends[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRunnerConstructorsNilForEmpty(t *testing.T) {
	t.Parallel()
	if r := StudyRunner(nil); r != nil {
		t.Error("StudyRunner(nil) should be nil (local compute)")
	}
	if r := SweepRunner(nil); r != nil {
		t.Error("SweepRunner(nil) should be nil (local compute)")
	}
	if StudyRunner([]string{"h:1"}) == nil || SweepRunner([]string{"h:1"}) == nil {
		t.Error("constructors returned nil for a non-empty backend list")
	}
}

func TestPickSurvivesCounterWrap(t *testing.T) {
	t.Parallel()
	var served atomic.Int64
	a := echoBackend(t, &served)
	b := echoBackend(t, &served)
	c := NewClient(Config{Backends: []string{a.URL, b.URL}}, echoLocal)
	// Wind the round-robin counter to just below the uint64 wrap: the
	// old pick converted before reducing (int(rr.Add(1)) % n), so a
	// counter past 2^63 — or 2^31 on 32-bit ints — went negative and
	// indexed backends[-1].  Exercise picks across the wrap itself.
	c.rr.Store(^uint64(0) - 10)
	for i := 0; i < 25; i++ {
		res, err := c.RunUnit(context.Background(), echoUnit{X: i})
		if err != nil {
			t.Fatalf("unit %d across counter wrap: %v", i, err)
		}
		if res.Y != i*2 {
			t.Fatalf("unit %d = %+v, want Y=%d", i, res, i*2)
		}
	}
	if st := c.Stats(); st.Fallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0 across the counter wrap", st.Fallbacks)
	}
}

// stallingBackend serves echo responses only after release is closed,
// watching for client disconnects while stalled.
func stallingBackend(t *testing.T, release chan struct{}) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var u echoUnit
		json.NewDecoder(r.Body).Decode(&u)
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		res, _ := echoLocal(u)
		json.NewEncoder(w).Encode(res)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestHedgeTimerFiresOncePerLaunch(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	slowA := stallingBackend(t, release)
	slowB := stallingBackend(t, release)

	c := NewClient(Config{
		Backends:   []string{slowA.URL, slowB.URL},
		HedgeAfter: 20 * time.Millisecond,
	}, echoLocal)
	done := make(chan error, 1)
	go func() {
		res, err := c.RunUnit(context.Background(), echoUnit{X: 3})
		if err == nil && res.Y != 6 {
			err = fmt.Errorf("res = %+v, want Y=6", res)
		}
		done <- err
	}()
	// Both backends stall well past many hedge periods.  The first
	// launch arms the hedge clock; its one wakeup hedges onto the
	// second backend and re-arms; that attempt's one wakeup finds no
	// untried backend and disarms for good.  The old loop re-armed the
	// timer on every iteration of the wait, waking every HedgeAfter
	// forever — ~15 wakeups in this window instead of 2.
	time.Sleep(300 * time.Millisecond)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if wakes := c.hedgeWake.Load(); wakes != 2 {
		t.Errorf("hedge timer woke %d times, want exactly 2 (one per launch)", wakes)
	}
	if st := c.Stats(); st.Hedges != 1 {
		t.Errorf("hedges = %d, want exactly 1", st.Hedges)
	}
}

func TestHedgeTimerDisarmsWithNoBackendLeft(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	slow := stallingBackend(t, release)

	c := NewClient(Config{
		Backends:   []string{slow.URL},
		HedgeAfter: 20 * time.Millisecond,
	}, echoLocal)
	done := make(chan error, 1)
	go func() {
		_, err := c.RunUnit(context.Background(), echoUnit{X: 1})
		done <- err
	}()
	time.Sleep(300 * time.Millisecond)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The sole backend was already tried when the hedge fired: one
	// wakeup, no hedge, then silence.
	if wakes := c.hedgeWake.Load(); wakes != 1 {
		t.Errorf("hedge timer woke %d times, want exactly 1", wakes)
	}
	if st := c.Stats(); st.Hedges != 0 {
		t.Errorf("hedges = %d, want 0 with nowhere to hedge", st.Hedges)
	}
}

// batchEchoBackend serves the echo computation on both the unit and
// batch paths, counting requests per path.
func batchEchoBackend(t *testing.T, unitReqs, batchReqs *atomic.Int64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/unit", func(w http.ResponseWriter, r *http.Request) {
		if unitReqs != nil {
			unitReqs.Add(1)
		}
		var u echoUnit
		if err := json.NewDecoder(r.Body).Decode(&u); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, _ := echoLocal(u)
		json.NewEncoder(w).Encode(res)
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		if batchReqs != nil {
			batchReqs.Add(1)
		}
		var us []echoUnit
		if err := json.NewDecoder(r.Body).Decode(&us); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := make([]echoResult, len(us))
		for i, u := range us {
			out[i], _ = echoLocal(u)
		}
		json.NewEncoder(w).Encode(out)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestClientBatchesUnits(t *testing.T) {
	t.Parallel()
	var unitReqs, batchReqs atomic.Int64
	srv := batchEchoBackend(t, &unitReqs, &batchReqs)
	c := NewClient(Config{
		Backends:   []string{srv.URL},
		Path:       "/unit",
		BatchPath:  "/batch",
		BatchUnits: 4,
	}, echoLocal)
	got, err := engine.RunAll(context.Background(), 4, units(16), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, got)
	if batchReqs.Load() != 4 {
		t.Errorf("batch requests = %d, want 4 (16 units / 4 per batch)", batchReqs.Load())
	}
	if unitReqs.Load() != 0 {
		t.Errorf("unit requests = %d, want 0 when batching", unitReqs.Load())
	}
	st := c.Stats()
	if st.Batches != 4 {
		t.Errorf("Stats.Batches = %d, want 4", st.Batches)
	}
	if st.Backends[0].Units != 16 {
		t.Errorf("backend units = %d, want all 16 counted", st.Backends[0].Units)
	}
}

func TestClientBatchDegradesWhenEndpointAbsent(t *testing.T) {
	t.Parallel()
	// An older daemon: unit path present, batch path 404s.
	var unitReqs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/unit", func(w http.ResponseWriter, r *http.Request) {
		unitReqs.Add(1)
		var u echoUnit
		json.NewDecoder(r.Body).Decode(&u)
		res, _ := echoLocal(u)
		json.NewEncoder(w).Encode(res)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	c := NewClient(Config{
		Backends:   []string{srv.URL},
		Path:       "/unit",
		BatchPath:  "/batch",
		BatchUnits: 4,
	}, echoLocal)
	got, err := engine.RunAll(context.Background(), 4, units(8), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, got)
	if unitReqs.Load() != 8 {
		t.Errorf("unit requests = %d, want all 8 degraded to the unit path", unitReqs.Load())
	}
	st := c.Stats()
	if st.Batches != 0 {
		t.Errorf("Stats.Batches = %d, want 0 against a batchless daemon", st.Batches)
	}
	// Version skew is not sickness: the backend must stay live.
	if st.Backends[0].Dead || st.Backends[0].Failures != 0 {
		t.Errorf("batchless backend penalized: %+v", st.Backends[0])
	}
}

func TestClientBatchReroutesOnFailure(t *testing.T) {
	t.Parallel()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "backend on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)
	var batchReqs atomic.Int64
	good := batchEchoBackend(t, nil, &batchReqs)

	c := NewClient(Config{
		Backends:    []string{bad.URL, good.URL},
		Path:        "/unit",
		BatchPath:   "/batch",
		BatchUnits:  4,
		MaxFailures: 1,
	}, echoLocal)
	got, err := engine.RunAll(context.Background(), 2, units(8), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, got)
	if batchReqs.Load() == 0 {
		t.Error("no batches rerouted to the healthy backend")
	}
	st := c.Stats()
	for _, b := range st.Backends {
		if b.Addr == bad.URL && !b.Dead {
			t.Errorf("failing backend not marked dead after batch failures: %+v", b)
		}
	}
}

func TestBatchUnitsDisabledWithoutBatchPath(t *testing.T) {
	t.Parallel()
	c := NewClient(Config{Backends: []string{"h:1"}}, echoLocal)
	if got := c.BatchUnits(); got != 1 {
		t.Errorf("BatchUnits() = %d without a BatchPath, want 1", got)
	}
	none := NewClient(Config{BatchPath: "/batch"}, echoLocal)
	if got := none.BatchUnits(); got != 1 {
		t.Errorf("BatchUnits() = %d without backends, want 1", got)
	}
	on := NewClient(Config{Backends: []string{"h:1"}, BatchPath: "/batch"}, echoLocal)
	if got := on.BatchUnits(); got != DefaultBatchUnits {
		t.Errorf("BatchUnits() = %d, want DefaultBatchUnits", got)
	}
}

func TestStudyClientBatchesByDefault(t *testing.T) {
	t.Parallel()
	c := NewStudyClient(Config{Backends: []string{"h:1"}})
	if got := c.BatchUnits(); got != DefaultBatchUnits {
		t.Errorf("study client BatchUnits() = %d, want batching on by default", got)
	}
	off := NewStudyClient(Config{Backends: []string{"h:1"}, BatchUnits: 1})
	if got := off.BatchUnits(); got != 1 {
		t.Errorf("study client BatchUnits() = %d with BatchUnits=1, want batching off", got)
	}
}

func TestClientConcurrencySizing(t *testing.T) {
	t.Parallel()
	c := NewClient(Config{Backends: []string{"a:1", "b:2"}}, echoLocal)
	if got := c.Concurrency(0); got != 8 {
		t.Errorf("Concurrency(0) = %d, want 4 per backend", got)
	}
	if got := c.Concurrency(3); got != 3 {
		t.Errorf("Concurrency(3) = %d, want the explicit request honored", got)
	}
	local := NewClient(Config{}, echoLocal)
	if got := local.Concurrency(0); got != 0 {
		t.Errorf("Concurrency(0) with no backends = %d, want 0 (engine default)", got)
	}
}

func TestClientForwardsRequestID(t *testing.T) {
	t.Parallel()
	var unitIDs, batchIDs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/unit", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(obs.RequestIDHeader) == "trace-forward" {
			unitIDs.Add(1)
		}
		var u echoUnit
		json.NewDecoder(r.Body).Decode(&u)
		res, _ := echoLocal(u)
		json.NewEncoder(w).Encode(res)
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(obs.RequestIDHeader) == "trace-forward" {
			batchIDs.Add(1)
		}
		var us []echoUnit
		json.NewDecoder(r.Body).Decode(&us)
		out := make([]echoResult, len(us))
		for i, u := range us {
			out[i], _ = echoLocal(u)
		}
		json.NewEncoder(w).Encode(out)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	ctx := obs.WithRequestID(context.Background(), "trace-forward")
	c := NewClient(Config{Backends: []string{srv.URL}, Path: "/unit", BatchPath: "/batch", BatchUnits: 4}, echoLocal)
	if _, err := c.RunUnit(ctx, echoUnit{X: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunBatch(ctx, units(4)); err != nil {
		t.Fatal(err)
	}
	if unitIDs.Load() != 1 || batchIDs.Load() != 1 {
		t.Errorf("request ID forwarded on %d unit and %d batch POSTs, want 1 and 1",
			unitIDs.Load(), batchIDs.Load())
	}

	// Without an ID in the context, no header is sent.
	bare := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, present := r.Header[obs.RequestIDHeader]; present {
			t.Error("X-Request-Id sent with no ID in the context")
		}
		var u echoUnit
		json.NewDecoder(r.Body).Decode(&u)
		res, _ := echoLocal(u)
		json.NewEncoder(w).Encode(res)
	}))
	t.Cleanup(bare.Close)
	c2 := NewClient(Config{Backends: []string{bare.URL}}, echoLocal)
	if _, err := c2.RunUnit(context.Background(), echoUnit{X: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsReportsLatencyReroutesAndQuarantines(t *testing.T) {
	t.Parallel()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "backend on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)
	good := echoBackend(t, nil)

	c := NewClient(Config{
		Backends:    []string{bad.URL, good.URL},
		MaxFailures: 2,
	}, echoLocal)
	if _, err := engine.RunAll(context.Background(), 4, units(16), c, nil); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Reroutes == 0 {
		t.Errorf("Reroutes = 0 after units failed over, want > 0")
	}
	if st.Quarantines != 1 {
		t.Errorf("Quarantines = %d, want exactly 1 (the bad backend, counted once)", st.Quarantines)
	}
	for _, b := range st.Backends {
		if b.InFlight != 0 {
			t.Errorf("backend %s InFlight = %d after the run, want 0", b.Addr, b.InFlight)
		}
		if b.P50 <= 0 || b.P99 < b.P50 {
			t.Errorf("backend %s quantiles p50=%v p99=%v, want 0 < p50 <= p99", b.Addr, b.P50, b.P99)
		}
	}
}

// memberList is a test BackendSource with a settable snapshot.
type memberList struct {
	mu    sync.Mutex
	addrs []string
}

func (m *memberList) set(addrs ...string) {
	m.mu.Lock()
	m.addrs = addrs
	m.mu.Unlock()
}

func (m *memberList) Snapshot() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.addrs...)
}

func TestRegistryMembershipFollowsSnapshot(t *testing.T) {
	t.Parallel()
	var servedA, servedB atomic.Int64
	a := echoBackend(t, &servedA)
	b := echoBackend(t, &servedB)

	reg := &memberList{}
	reg.set(a.URL)
	c := NewClient(Config{Path: "/", Registry: reg, HedgeAfter: time.Hour}, echoLocal)

	ctx := context.Background()
	if _, err := c.RunUnit(ctx, echoUnit{X: 1}); err != nil {
		t.Fatal(err)
	}
	if servedA.Load() == 0 {
		t.Fatal("backend A served nothing while sole member")
	}

	// B joins, A leaves: the next unit must land on B.
	reg.set(b.URL)
	if _, err := c.RunUnit(ctx, echoUnit{X: 2}); err != nil {
		t.Fatal(err)
	}
	if servedB.Load() == 0 {
		t.Fatal("backend B served nothing after joining")
	}
	if got := servedA.Load(); got != 1 {
		t.Fatalf("backend A served %d units after leaving, want 1", got)
	}

	// Stats reports only current members, with B's unit tally.
	st := c.Stats()
	if len(st.Backends) != 1 || st.Backends[0].Addr != b.URL {
		t.Fatalf("Stats().Backends = %+v, want just %s", st.Backends, b.URL)
	}
}

func TestRegistryRejoinClearsQuarantine(t *testing.T) {
	t.Parallel()
	var served atomic.Int64
	good := echoBackend(t, &served)
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)

	reg := &memberList{}
	reg.set(bad.URL)
	c := NewClient(Config{Path: "/", Registry: reg, MaxFailures: 1, HedgeAfter: time.Hour}, echoLocal)

	ctx := context.Background()
	// One failure quarantines bad; the unit falls back to local.
	if _, err := c.RunUnit(ctx, echoUnit{X: 1}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", got.Quarantines)
	}

	// bad leaves; good joins; then bad rejoins — revived, but good is
	// less loaded and both are live, so just assert bad is not dead.
	reg.set(good.URL)
	if _, err := c.RunUnit(ctx, echoUnit{X: 2}); err != nil {
		t.Fatal(err)
	}
	reg.set(good.URL, bad.URL)
	c.refresh()
	for _, b := range c.view() {
		if b.addr == bad.URL && b.dead.Load() {
			t.Fatal("rejoined backend still quarantined")
		}
	}
}

func TestErrorEnvelopeSurfacedInErrorString(t *testing.T) {
	t.Parallel()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(ErrorResponse{
			Code: CodeInvalidConfig, Message: "cores out of range", RequestID: "abc123",
		})
	}))
	t.Cleanup(srv.Close)

	_, err := PostUnit[echoUnit, echoResult](context.Background(), nil, srv.URL, echoUnit{X: 1}, time.Minute)
	if err == nil {
		t.Fatal("PostUnit succeeded against an erroring backend")
	}
	if !strings.Contains(err.Error(), CodeInvalidConfig+": cores out of range") {
		t.Fatalf("error %q does not surface the envelope code", err)
	}

	// Non-envelope bodies still surface, truncated.
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "old-style text error", http.StatusInternalServerError)
	}))
	t.Cleanup(plain.Close)
	_, err = PostUnit[echoUnit, echoResult](context.Background(), nil, plain.URL, echoUnit{X: 1}, time.Minute)
	if err == nil || !strings.Contains(err.Error(), "old-style text error") {
		t.Fatalf("plain-body error not surfaced: %v", err)
	}
}

func TestPostUnitRoundTrip(t *testing.T) {
	t.Parallel()
	srv := echoBackend(t, nil)
	res, err := PostUnit[echoUnit, echoResult](context.Background(), nil, srv.URL, echoUnit{X: 21}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Y != 42 {
		t.Fatalf("PostUnit = %+v, want Y=42", res)
	}
}
