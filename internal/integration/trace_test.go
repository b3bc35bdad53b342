package integration

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/service"
)

// Request-tracing acceptance test: one campaign request ID — planted
// at the client, or a coord job's ID — must be forwarded with every
// unit and batch the fleet client ships and reconstructable from each
// daemon's GET /v1/trace/{id} — together the per-backend spans
// account for every unit in the campaign.

// fetchTrace reads one daemon's spans for id; found=false on 404.
func fetchTrace(t *testing.T, baseURL, id string) (service.TraceResponse, bool) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return service.TraceResponse{}, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch = %d", resp.StatusCode)
	}
	var tr service.TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr, true
}

// TestCampaignTraceCoversAllUnitsAcrossDaemons runs the quick
// campaign over two daemons twice — once through a sharding study
// client under a request ID planted by the caller, once as a cold
// coord job, whose job ID is the trace ID — and requires each
// daemon's GET /v1/trace/{id} to hold part of the trace, the union of
// spans covering every unit.
func TestCampaignTraceCoversAllUnitsAcrossDaemons(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("quick campaign in -short mode")
	}
	cfg := core.QuickScale()
	cases := []struct {
		name string
		// run executes the campaign on the two daemons and returns
		// its trace ID.
		run func(t *testing.T, a, b string) string
	}{
		{"shard client", func(t *testing.T, a, b string) string {
			const traceID = "campaign-trace"
			client := remote.NewStudyClient(remote.Config{Backends: []string{a, b}})
			ctx := obs.WithRequestID(context.Background(), traceID)
			// Two workers over the 8 quick-scale units: RunAll caps
			// batches at ceil(8/2)=4 units, so two concurrent batches
			// ship and the least-loaded pick spreads them across both
			// daemons.
			if _, err := core.RunStudyRunner(ctx, cfg, 2, client); err != nil {
				t.Fatal(err)
			}
			return traceID
		}},
		{"coord job", func(t *testing.T, a, b string) string {
			c := coord.New(coord.Config{Registry: registryOf(a, b)})
			defer c.Close()
			st, _, err := c.Submit(coord.JobSpec{Kind: "study", Study: &cfg})
			if err != nil {
				t.Fatal(err)
			}
			if st = awaitTerminal(t, c, st.ID); st.State != coord.StateDone {
				t.Fatalf("job ended %s: %s", st.State, st.Error)
			}
			return st.ID
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			a, b := newBackend(t), newBackend(t)
			traceID := tc.run(t, a.URL, b.URL)

			daemonsWithSpans, unitsTraced := 0, 0
			for i, ts := range []string{a.URL, b.URL} {
				tr, found := fetchTrace(t, ts, traceID)
				if !found {
					continue
				}
				daemonsWithSpans++
				if tr.ID != traceID {
					t.Errorf("daemon %d: trace ID = %q, want %q", i, tr.ID, traceID)
				}
				if tr.Dropped != 0 {
					t.Errorf("daemon %d: %d spans dropped from a tiny campaign", i, tr.Dropped)
				}
				for _, sp := range tr.Spans {
					if sp.Name != "run_session" && sp.Name != "run_sessions" {
						t.Errorf("daemon %d: unexpected span %q in campaign trace", i, sp.Name)
					}
					if sp.Outcome != "ok" {
						t.Errorf("daemon %d: span %s outcome = %q, want ok", i, sp.Name, sp.Outcome)
					}
					if sp.Duration <= 0 {
						t.Errorf("daemon %d: span %s has non-positive duration %d", i, sp.Name, sp.Duration)
					}
					unitsTraced += len(sp.Units)
				}
			}

			// The whole fleet was exercised: both daemons hold part of
			// the trace, and the union of span unit IDs accounts for
			// every unit.
			if daemonsWithSpans != 2 {
				t.Errorf("trace found on %d daemons, want 2", daemonsWithSpans)
			}
			if want := cfg.TotalSessions(); unitsTraced != want {
				t.Errorf("spans cover %d units, want all %d campaign units", unitsTraced, want)
			}

			// A request ID the fleet never saw stays a 404 everywhere.
			if _, found := fetchTrace(t, a.URL, "never-ran"); found {
				t.Error("unknown trace ID resolved on daemon a")
			}
		})
	}
}

// TestTraceIsolationBetweenCampaigns pins that two campaigns with
// distinct request IDs stay separate traces on a shared daemon.
func TestTraceIsolationBetweenCampaigns(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("quick campaigns in -short mode")
	}
	ts := newBackend(t)
	client := remote.NewStudyClient(remote.Config{Backends: []string{ts.URL}})
	cfg := core.QuickScale()
	for run := 0; run < 2; run++ {
		id := fmt.Sprintf("campaign-%d", run)
		if _, err := core.RunStudyRunner(obs.WithRequestID(context.Background(), id), cfg, 1, client); err != nil {
			t.Fatal(err)
		}
		tr, found := fetchTrace(t, ts.URL, id)
		if !found {
			t.Fatalf("campaign %d left no trace", run)
		}
		units := 0
		for _, sp := range tr.Spans {
			units += len(sp.Units)
		}
		if want := cfg.TotalSessions(); units != want {
			t.Errorf("campaign %d trace covers %d units, want %d", run, units, want)
		}
	}
}
