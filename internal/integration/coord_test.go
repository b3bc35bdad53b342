package integration

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
)

// Fleet-campaign acceptance tests: a campaign run as a persistent
// job, interrupted by killing its coordinator daemon mid-flight, must
// resume from the persisted record on a second daemon — byte-identical
// to local execution, recomputing only the units the dead daemon had
// not finished.

// newStallingBackend boots an fx8d node that serves its first
// afterUnits unit requests normally and then hangs — the view a
// coordinator has of a daemon that stops answering without closing
// connections.  The stall lifts at test cleanup so the server can
// shut down.
func newStallingBackend(t *testing.T, afterUnits int64) *httptest.Server {
	t.Helper()
	var admitted atomic.Int64
	stall := make(chan struct{})
	inner := service.New(service.Config{Workers: 1, MaxInFlight: 4})
	t.Cleanup(inner.Close)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/run/") && admitted.Add(1) > afterUnits {
			<-stall
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(stall) })
	return ts
}

// registryOf builds a coord registry holding the given backends.
func registryOf(addrs ...string) *coord.Registry {
	r := coord.NewRegistry()
	for _, a := range addrs {
		r.Register(a, time.Hour)
	}
	return r
}

// TestCampaignResumesAfterCoordinatorKilledMidRun is the tentpole
// acceptance test: a quick-scale campaign job is started on
// coordinator 1, whose only backend stalls after 3 of the 8 units
// (>25% done); coordinator 1 is then killed (Close, the in-process
// equivalent of the daemon dying).  Coordinator 2 shares the store,
// resumes the job with a healthy backend, and must (a) produce the
// byte-identical study, (b) replay exactly the units completed before
// the kill, and (c) compute exactly the rest.
func TestCampaignResumesAfterCoordinatorKilledMidRun(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-campaign resume proof in -short mode")
	}
	cfg := core.QuickScale()
	units := cfg.Units()
	total := len(units)
	local := core.RunStudy(cfg)
	localJSON, err := core.EncodeStudy(local)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const completeBeforeKill = 3 // of 8: past the 25% bar

	// Phase 1: coordinator 1 drives the job through a backend that
	// stalls after 3 units.
	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stalling := newStallingBackend(t, completeBeforeKill)
	c1 := coord.New(coord.Config{
		Store:       s1,
		Registry:    registryOf(stalling.URL),
		UnitTimeout: time.Hour, // the stall must hang, not time out into a retry
	})
	spec := coord.JobSpec{Kind: "study", Study: &cfg}
	st, created, err := c1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !created || st.Total != total {
		t.Fatalf("submit: created=%v status=%+v", created, st)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if cur, err := c1.Status(st.ID); err == nil && cur.Done >= completeBeforeKill {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached %d completed units", completeBeforeKill)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c1.Close() // kill the daemon mid-campaign

	// The unit cache knows exactly which units finished.
	completed := 0
	for _, u := range units {
		key, err := store.Key(coord.SessionUnitNamespace, u)
		if err != nil {
			t.Fatal(err)
		}
		if s1.Has(key) {
			completed++
		}
	}
	if completed < completeBeforeKill || completed >= total {
		t.Fatalf("completed %d of %d units before the kill, want a partial campaign >= %d",
			completed, total, completeBeforeKill)
	}

	// Phase 2: a fresh coordinator on the same store resumes the job
	// with a healthy backend.
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	healthy := newBackend(t)
	c2 := coord.New(coord.Config{Store: s2, Registry: registryOf(healthy.URL)})
	defer c2.Close()
	st2, created2, err := c2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if created2 {
		t.Error("resubmission created a new job instead of resuming the persisted one")
	}
	for {
		cur, err := c2.Status(st2.ID)
		if err != nil {
			t.Fatal(err)
		}
		if coord.TerminalState(cur.State) {
			if cur.State != coord.StateDone {
				t.Fatalf("resumed job ended %s: %s", cur.State, cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("resumed job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	res, err := c2.Result(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	resumedJSON, err := core.EncodeStudy(res.Study)
	if err != nil {
		t.Fatal(err)
	}
	if string(resumedJSON) != string(localJSON) {
		t.Error("resumed campaign differs from local campaign")
	}

	stats := c2.Stats()
	if stats.JobsResumed != 1 {
		t.Errorf("JobsResumed = %d, want 1", stats.JobsResumed)
	}
	if stats.UnitsReplayed != uint64(completed) {
		t.Errorf("resumed coordinator replayed %d units, want the %d completed before the kill",
			stats.UnitsReplayed, completed)
	}
	if stats.UnitsComputed != uint64(total-completed) {
		t.Errorf("resumed coordinator computed %d units, want only the %d the dead daemon left",
			stats.UnitsComputed, total-completed)
	}
}
