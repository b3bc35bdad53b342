package integration

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/remote"
	"repro/internal/service"
)

// Sharded-execution acceptance tests: sweeps and campaigns executed
// across a fleet of in-process fx8d backends must be byte-identical
// to local execution — for every backend count, and with a backend
// killed mid-run (its work is re-routed, never lost).

// newBackend boots one in-process fx8d node.
func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(service.New(service.Config{Workers: 1, MaxInFlight: 4}))
	t.Cleanup(ts.Close)
	return ts
}

// newKillableBackend boots an fx8d node that dies after serving
// afterUnits requests: later requests abort at the connection level,
// exactly what a killed process looks like to the client.
func newKillableBackend(t *testing.T, afterUnits int64) *httptest.Server {
	t.Helper()
	var admitted atomic.Int64
	inner := service.New(service.Config{Workers: 1, MaxInFlight: 4})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Count admissions, not completions: concurrent requests
		// beyond the budget abort even while the first is still
		// being served — the node dies with work in flight.
		if admitted.Add(1) > afterUnits {
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestShardedSchedulerSweepByteIdentical(t *testing.T) {
	t.Parallel()
	cfg := experiments.SweepConfig{
		Kind:    "sched",
		Values:  []int{10_000, 30_000, 100_000, 300_000},
		Seed:    5,
		Samples: 2,
	}
	local, err := experiments.RunSweepConfig(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, _ := json.Marshal(local)

	a, b := newBackend(t), newBackend(t)
	client := remote.NewSweepClient(remote.Config{Backends: []string{a.URL, b.URL}})
	sharded, err := experiments.RunSweepRunner(cfg, 0, client)
	if err != nil {
		t.Fatal(err)
	}
	shardedJSON, _ := json.Marshal(sharded)
	if string(shardedJSON) != string(localJSON) {
		t.Errorf("sharded sweep differs from local:\n%s\nvs\n%s", shardedJSON, localJSON)
	}
	st := client.Stats()
	if st.Fallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0 with two live backends", st.Fallbacks)
	}
	var total uint64
	for _, bs := range st.Backends {
		total += bs.Units
	}
	if total != uint64(len(cfg.Values)) {
		t.Errorf("backends served %d units, want %d", total, len(cfg.Values))
	}
}

func TestShardedQuickCampaignByteIdentical(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-campaign sharding proof in -short mode")
	}
	cfg := core.QuickScale()
	local := core.RunStudy(cfg)
	localJSON, err := core.EncodeStudy(local)
	if err != nil {
		t.Fatal(err)
	}

	// Healthy fleet: every session served remotely, reassembled
	// byte-identically.
	t.Run("healthy fleet", func(t *testing.T) {
		t.Parallel()
		a, b := newBackend(t), newBackend(t)
		client := remote.NewStudyClient(remote.Config{Backends: []string{a.URL, b.URL}})
		sharded, err := core.RunStudyRunner(context.Background(), cfg, 0, client)
		if err != nil {
			t.Fatal(err)
		}
		shardedJSON, err := core.EncodeStudy(sharded)
		if err != nil {
			t.Fatal(err)
		}
		if string(shardedJSON) != string(localJSON) {
			t.Error("sharded campaign differs from local campaign")
		}
		st := client.Stats()
		if st.Fallbacks != 0 {
			t.Errorf("fallbacks = %d, want 0 with two live backends", st.Fallbacks)
		}
		for _, bs := range st.Backends {
			if bs.Units == 0 {
				t.Errorf("backend %s served no units; campaign was not sharded", bs.Addr)
			}
		}
	})

	// One backend killed mid-run: its remaining units are re-routed
	// to the survivor (or computed locally), and the reassembled
	// campaign is still byte-identical.
	t.Run("backend killed mid-run", func(t *testing.T) {
		t.Parallel()
		dying := newKillableBackend(t, 1)
		healthy := newBackend(t)
		client := remote.NewStudyClient(remote.Config{
			Backends:    []string{dying.URL, healthy.URL},
			MaxFailures: 2,
		})
		sharded, err := core.RunStudyRunner(context.Background(), cfg, 0, client)
		if err != nil {
			t.Fatal(err)
		}
		shardedJSON, err := core.EncodeStudy(sharded)
		if err != nil {
			t.Fatal(err)
		}
		if string(shardedJSON) != string(localJSON) {
			t.Error("campaign with a killed backend differs from local campaign")
		}
		st := client.Stats()
		var dead bool
		var unitsServed uint64
		for _, bs := range st.Backends {
			unitsServed += bs.Units
			if bs.Addr == dying.URL {
				dead = bs.Dead
			}
		}
		if !dead {
			t.Errorf("killed backend not marked dead: %+v", st.Backends)
		}
		if got := unitsServed + st.Fallbacks; got < uint64(cfg.TotalSessions()) {
			t.Errorf("accounted for %d of %d sessions; work was lost", got, cfg.TotalSessions())
		}
	})
}

// TestBatchedCampaignByteIdentical is the batch-path acceptance
// proof: a campaign executed over POST /v1/run/sessions — many units
// per request — reassembles byte-identically to local execution, and
// the batch endpoint actually carried the work.
func TestBatchedCampaignByteIdentical(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-campaign batching proof in -short mode")
	}
	cfg := core.QuickScale()
	local := core.RunStudy(cfg)
	localJSON, err := core.EncodeStudy(local)
	if err != nil {
		t.Fatal(err)
	}

	// One backend, half as many workers as units: the engine cuts
	// multi-unit batches, all carried by the batch endpoint.
	backend := newBackend(t)
	client := remote.NewStudyClient(remote.Config{Backends: []string{backend.URL}})
	workers := cfg.TotalSessions() / 2
	sharded, err := core.RunStudyRunner(context.Background(), cfg, workers, client)
	if err != nil {
		t.Fatal(err)
	}
	shardedJSON, err := core.EncodeStudy(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if string(shardedJSON) != string(localJSON) {
		t.Error("batched campaign differs from local campaign")
	}
	st := client.Stats()
	if st.Batches == 0 {
		t.Error("campaign ran without a single batched request")
	}
	if st.Fallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0 with a live backend", st.Fallbacks)
	}
	if st.Backends[0].Units != uint64(cfg.TotalSessions()) {
		t.Errorf("backend served %d units, want all %d", st.Backends[0].Units, cfg.TotalSessions())
	}
}

// TestBatchedCampaignSurvivesBatchlessBackend proves version-skew
// safety: a fleet mixing a batch-capable daemon with an older one
// that 404s the batch path still reassembles byte-identically, and
// the older daemon is not marked dead for the skew.
func TestBatchedCampaignSurvivesBatchlessBackend(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-campaign batching proof in -short mode")
	}
	cfg := core.QuickScale()
	local := core.RunStudy(cfg)
	localJSON, err := core.EncodeStudy(local)
	if err != nil {
		t.Fatal(err)
	}

	modern := newBackend(t)
	// An older daemon: same unit endpoint, no batch endpoint.
	older := service.New(service.Config{Workers: 1, MaxInFlight: 4})
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == remote.SessionBatchPath {
			http.NotFound(w, r)
			return
		}
		older.ServeHTTP(w, r)
	}))
	t.Cleanup(legacy.Close)

	client := remote.NewStudyClient(remote.Config{Backends: []string{modern.URL, legacy.URL}})
	sharded, err := core.RunStudyRunner(context.Background(), cfg, cfg.TotalSessions()/2, client)
	if err != nil {
		t.Fatal(err)
	}
	shardedJSON, err := core.EncodeStudy(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if string(shardedJSON) != string(localJSON) {
		t.Error("mixed-fleet campaign differs from local campaign")
	}
	for _, bs := range client.Stats().Backends {
		if bs.Dead {
			t.Errorf("backend %s marked dead in a healthy mixed fleet", bs.Addr)
		}
	}
}

// TestShardedSweepSurvivesKilledBackend is the sweep-side half of the
// kill-mid-run proof.
func TestShardedSweepSurvivesKilledBackend(t *testing.T) {
	t.Parallel()
	cfg := experiments.SweepConfig{
		Kind:    "ce",
		Values:  []int{1, 2, 4, 8},
		Seed:    5,
		Samples: 2,
	}
	local, err := experiments.RunSweepConfig(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, _ := json.Marshal(local)

	dying := newKillableBackend(t, 1)
	healthy := newBackend(t)
	client := remote.NewSweepClient(remote.Config{
		Backends:    []string{dying.URL, healthy.URL},
		MaxFailures: 2,
	})
	sharded, err := experiments.RunSweepRunner(cfg, 0, client)
	if err != nil {
		t.Fatal(err)
	}
	shardedJSON, _ := json.Marshal(sharded)
	if string(shardedJSON) != string(localJSON) {
		t.Errorf("sweep with a killed backend differs from local:\n%s\nvs\n%s", shardedJSON, localJSON)
	}
}

// TestShardedMeasureSessionsMatchLocal drives the cmd/measure-shaped
// path: session units built outside a campaign, run through a fleet,
// equal to in-process execution.
func TestShardedMeasureSessionsMatchLocal(t *testing.T) {
	t.Parallel()
	units := make([]core.StudyUnit, 3)
	for i := range units {
		spec := core.DefaultSessionSpec(uint64(40 + i))
		spec.Samples = 2
		units[i] = core.StudyUnit{ID: i + 1, Random: &spec}
	}
	localRes, err := engine.RunAll(context.Background(), 0, units, core.LocalStudyRunner(), nil)
	if err != nil {
		t.Fatal(err)
	}
	a := newBackend(t)
	client := remote.NewStudyClient(remote.Config{Backends: []string{a.URL}})
	remoteRes, err := engine.RunAll(context.Background(), 0, units, client, nil)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, _ := json.Marshal(localRes)
	remoteJSON, _ := json.Marshal(remoteRes)
	if string(localJSON) != string(remoteJSON) {
		t.Error("remote measure sessions differ from local sessions")
	}
}
