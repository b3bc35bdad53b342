package integration

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/remote"
	"repro/internal/retry"
	"repro/internal/service"
	"repro/internal/store"
)

// The chaos suite: seeded fault plans injected at the network, disk
// and process seams of a small daemon fleet, asserting the repo's
// fault-tolerance contract —
//
//   - surviving campaigns are byte-identical to local execution;
//   - the same seed reproduces the same fault schedule (sorted event
//     logs for network plans, Decide-replay for all);
//   - unabsorbable faults surface as typed *chaos.FaultError values,
//     never as wrong answers;
//   - no leases or goroutines leak.
//
// Chaos tests deliberately do not call t.Parallel: goroutine-leak
// accounting needs a quiet process, and the schedules themselves are
// interleaving-independent by construction.

// chaosSeed returns name's plan seed: the pinned default normally, or
// a fresh seed folded from the CHAOS_SEEDS list (comma-separated
// uint64s, set by the nightly workflow) so every plan still draws a
// distinct schedule.  A failure always logs the seed — it is the
// whole reproduction recipe.
func chaosSeed(t *testing.T, name string, def uint64) uint64 {
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		return def
	}
	parts := strings.Split(env, ",")
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	s, err := strconv.ParseUint(strings.TrimSpace(parts[h%uint64(len(parts))]), 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEEDS entry %q: %v", parts[h%uint64(len(parts))], err)
	}
	return s ^ h
}

// reportPlan registers the failure artifact: if the test fails, the
// seed and sorted event log are logged, and written to
// $CHAOS_ARTIFACT_DIR when set so CI can upload the reproduction
// recipe.
func reportPlan(t *testing.T, name string, plan *chaos.Plan) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		var b strings.Builder
		fmt.Fprintf(&b, "plan %s seed %d\n", name, plan.Seed())
		for _, e := range plan.Events() {
			fmt.Fprintf(&b, "%s\n", e)
		}
		t.Logf("chaos reproduction recipe:\n%s", b.String())
		if dir := os.Getenv("CHAOS_ARTIFACT_DIR"); dir != "" {
			path := filepath.Join(dir, strings.ReplaceAll(name, "/", "_")+".seed.log")
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Logf("writing chaos artifact: %v", err)
			}
		}
	})
}

// checkGoroutines registers the leak check: after the test's own
// cleanups (servers, coordinators) have run, the goroutine count must
// settle back to where it started.  Register it first so it runs
// last.
func checkGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		n := runtime.NumGoroutine()
		for n > before && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before {
			t.Errorf("goroutines leaked under chaos: %d before, %d after settling", before, n)
		}
	})
}

// requireInjection fails a pinned-seed run whose plan drew no faults
// — the pinned seeds are chosen to exercise the campaign.  Under
// fresh nightly seeds a quiet draw is possible and merely logged.
func requireInjection(t *testing.T, plan *chaos.Plan) {
	t.Helper()
	if len(plan.Events()) > 0 {
		return
	}
	if os.Getenv("CHAOS_SEEDS") == "" {
		t.Errorf("pinned seed %d injected no faults; the campaign was not exercised", plan.Seed())
	} else {
		t.Logf("fresh seed %d drew a quiet schedule (no faults injected)", plan.Seed())
	}
}

// assertReplay proves the schedule was a pure function of the seed:
// every injected network and disk fault is exactly what Decide
// answers for its (class, key, seq).
func assertReplay(t *testing.T, plan *chaos.Plan) {
	t.Helper()
	for _, e := range plan.Events() {
		if e.Class == chaos.ClassProc {
			continue // kill points assert their own determinism
		}
		if got := plan.Decide(e.Class, e.Key, e.Seq).Kind; got != e.Kind {
			t.Errorf("schedule not pure: event %v replays as %s", e, got)
		}
	}
}

// chaosUnits builds n cheap deterministic session units.
func chaosUnits(n int) []core.StudyUnit {
	units := make([]core.StudyUnit, n)
	for i := range units {
		spec := core.SessionSpec{
			Samples:  1,
			Sampling: monitor.SampleSpec{Snapshots: 1, GapCycles: 2_000},
			Seed:     500 + uint64(i),
		}
		units[i] = core.StudyUnit{ID: i + 1, Random: &spec}
	}
	return units
}

// localUnitsJSON is the fault-free baseline every surviving chaos
// campaign must reproduce byte for byte.
func localUnitsJSON(t *testing.T, units []core.StudyUnit) string {
	t.Helper()
	res, err := engine.RunAll(context.Background(), 0, units, core.LocalStudyRunner(), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// newChaosBackend boots an fx8d node with admission headroom well
// above anything the suite offers it, so the only 429s and failures
// in a chaos run are the injected ones — real shedding would add
// timing-dependent retries and break schedule reproducibility.
func newChaosBackend(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(service.New(service.Config{Workers: 2, MaxInFlight: 64}))
	t.Cleanup(ts.Close)
	return ts
}

// runNetStudy runs the unit set through a two-backend fleet whose
// transport injects plan's network faults, with every
// timing-sensitive client behavior pinned: hedging off (hedges fire
// on wall clock), quarantine off (it trips on cumulative counts that
// vary with interleaving), batching off (batch composition depends on
// worker scheduling).  What remains is deterministic per request key.
func runNetStudy(t *testing.T, plan *chaos.Plan, units []core.StudyUnit) (string, remote.Stats) {
	t.Helper()
	a, b := newChaosBackend(t), newChaosBackend(t)
	client := remote.NewStudyClient(remote.Config{
		Backends:    []string{a.URL, b.URL},
		HTTPClient:  &http.Client{Transport: plan.Transport(nil)},
		HedgeAfter:  time.Hour,
		MaxFailures: 1 << 30,
		BatchUnits:  1,
		Retry:       retry.Policy{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	res, err := engine.RunAll(context.Background(), len(units), units, client, nil)
	if err != nil {
		t.Fatalf("campaign under %v died: %v", plan.Seed(), err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), client.Stats()
}

// TestChaosNetworkPlans drives five network fault plans — refused
// connections, injected latency, mid-body disconnects, synthesized
// 5xx, corrupted and truncated bodies — and requires byte-identical
// results plus a reproducible schedule: the identical campaign under
// the identical seed injects the identical (sorted) fault log.
func TestChaosNetworkPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaigns in -short mode")
	}
	units := chaosUnits(6)
	baseline := localUnitsJSON(t, units)
	plans := []struct {
		name   string
		seed   uint64
		budget chaos.Budget
	}{
		{"net-refused", 101, chaos.Budget{Refused: 350}},
		{"net-latency", 102, chaos.Budget{Latency: 450, MaxLatency: 15 * time.Millisecond}},
		{"net-disconnect", 103, chaos.Budget{Disconnect: 250, Latency: 100, MaxLatency: 10 * time.Millisecond}},
		{"net-err5xx", 104, chaos.Budget{Err5xx: 300}},
		{"net-corrupt-truncate", 105, chaos.Budget{Corrupt: 200, Truncate: 200}},
	}
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			checkGoroutines(t)
			seed := chaosSeed(t, tc.name, tc.seed)
			run := func() (*chaos.Plan, string) {
				plan := chaos.NewPlan(seed, tc.budget)
				reportPlan(t, tc.name, plan)
				got, _ := runNetStudy(t, plan, units)
				return plan, got
			}
			p1, got1 := run()
			if got1 != baseline {
				t.Errorf("surviving campaign differs from local baseline")
			}
			requireInjection(t, p1)
			assertReplay(t, p1)

			// Same seed, fresh fleet: the schedule must reproduce
			// exactly, independent of ports, goroutines and timing.
			p2, got2 := run()
			if got2 != baseline {
				t.Errorf("second run differs from local baseline")
			}
			e1, e2 := p1.Events(), p2.Events()
			if len(e1) != len(e2) {
				t.Fatalf("same seed injected %d faults, then %d", len(e1), len(e2))
			}
			for i := range e1 {
				if e1[i] != e2[i] {
					t.Fatalf("schedule diverged at %d: %v vs %v", i, e1[i], e2[i])
				}
			}
		})
	}
}

// runDiskJob submits the unit set as a coordinator job over a store
// whose filesystem injects plan's disk faults, and returns the
// terminal status plus the sessions JSON when the job finished.
func runDiskJob(t *testing.T, plan *chaos.Plan, units []core.StudyUnit) (coord.JobStatus, string, *store.Store, error) {
	t.Helper()
	s, err := store.Open(t.TempDir(), store.WithFS(plan.FS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	c := coord.New(coord.Config{
		Store: s, Workers: 2,
		Retry: retry.Policy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	t.Cleanup(c.Close)
	spec := coord.JobSpec{Kind: "sessions", Units: units}
	st, _, err := c.Submit(spec)
	if err != nil {
		return coord.JobStatus{}, "", s, err
	}
	st = awaitTerminal(t, c, st.ID)
	if st.State != coord.StateDone {
		return st, "", s, nil
	}
	res, err := c.Result(st.ID)
	if err != nil {
		t.Fatalf("finished job has no result: %v", err)
	}
	data, err := json.Marshal(res.Sessions)
	if err != nil {
		t.Fatal(err)
	}
	return st, string(data), s, nil
}

// awaitTerminal polls a job to any terminal state.
func awaitTerminal(t *testing.T, c *coord.Coordinator, id string) coord.JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(id)
		if err == nil && coord.TerminalState(st.State) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return coord.JobStatus{}
}

// TestChaosDiskPlans drives three disk fault plans — outright write
// errors, short writes and bit flips (caught by the store's read-side
// checksum), and eviction under the reader — through coordinator
// jobs.  A fault the stack absorbs must leave a byte-identical
// campaign; one it cannot absorb must surface as a typed injected
// fault, never as a wrong answer; either way the lease is released
// and nothing litters the store.
func TestChaosDiskPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaigns in -short mode")
	}
	units := chaosUnits(6)
	baseline := localUnitsJSON(t, units)
	id, err := coord.JobID(coord.JobSpec{Kind: "sessions", Units: units})
	if err != nil {
		t.Fatal(err)
	}
	leaseKey := coord.LeaseKey(id)
	plans := []struct {
		name   string
		seed   uint64
		budget chaos.Budget
	}{
		{"disk-write-errors", 201, chaos.Budget{WriteErr: 80}},
		{"disk-corrupt", 202, chaos.Budget{ShortWrite: 80, BitFlip: 80}},
		{"disk-evict", 203, chaos.Budget{Evict: 150}},
	}
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			checkGoroutines(t)
			plan := chaos.NewPlan(chaosSeed(t, tc.name, tc.seed), tc.budget)
			reportPlan(t, tc.name, plan)
			st, got, s, err := runDiskJob(t, plan, units)
			var fe *chaos.FaultError
			switch {
			case err != nil:
				// Submission itself hit an unabsorbed fault: legal only
				// as a typed error.
				if !errors.As(err, &fe) {
					t.Fatalf("untyped submit failure under chaos: %v", err)
				}
			case st.State == coord.StateDone:
				if got != baseline {
					t.Errorf("surviving campaign differs from local baseline")
				}
				if st.Done != st.Total {
					t.Errorf("done job progress incomplete: %d/%d units", st.Done, st.Total)
				}
			default:
				// The job failed: the cause must be the injected fault,
				// surfaced verbatim in the record.
				if !strings.Contains(st.Error, "chaos: injected") {
					t.Errorf("job failed for a non-injected reason under chaos: %s: %s", st.State, st.Error)
				}
			}
			requireInjection(t, plan)
			assertReplay(t, plan)
			if s.Has(leaseKey) {
				t.Errorf("job lease leaked after terminal state")
			}
		})
	}
}

// TestChaosProcessBackendDeath kills one of two backends at a unit
// count drawn from the plan — a different death point per seed — and
// requires the campaign to reroute and finish byte-identically.
func TestChaosProcessBackendDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaigns in -short mode")
	}
	checkGoroutines(t)
	units := chaosUnits(6)
	baseline := localUnitsJSON(t, units)
	plan := chaos.NewPlan(chaosSeed(t, "proc-backend-death", 301), chaos.Budget{})
	reportPlan(t, "proc-backend-death", plan)

	kill := plan.KillPoint("backend-0", len(units)-1)
	dying := newKillableBackend(t, int64(kill))
	healthy := newChaosBackend(t)
	client := remote.NewStudyClient(remote.Config{
		Backends:    []string{dying.URL, healthy.URL},
		MaxFailures: 2,
		HedgeAfter:  time.Hour,
		BatchUnits:  1,
	})
	res, err := engine.RunAll(context.Background(), len(units), units, client, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != baseline {
		t.Error("campaign with a dying backend differs from local baseline")
	}
	if kill2 := chaos.NewPlan(plan.Seed(), chaos.Budget{}).KillPoint("backend-0", len(units)-1); kill2 != kill {
		t.Errorf("kill point not seed-deterministic: %d vs %d", kill, kill2)
	}
}

// TestChaosProcessCoordinatorKill kills the owning coordinator at a
// progress point drawn from the plan and lets a peer take over the
// persisted job: the reassembled campaign must be byte-identical, the
// two owners' computed units must exactly partition the job, and the
// finished job must leave no lease behind.
func TestChaosProcessCoordinatorKill(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaigns in -short mode")
	}
	checkGoroutines(t)
	units := chaosUnits(6)
	baseline := localUnitsJSON(t, units)
	plan := chaos.NewPlan(chaosSeed(t, "proc-coord-kill", 302), chaos.Budget{})
	reportPlan(t, "proc-coord-kill", plan)

	total := len(units)
	kill := plan.KillPoint("coordinator", total-1) // die mid-campaign, never at the finish line
	spec := coord.JobSpec{Kind: "sessions", Units: units}
	id, err := coord.JobID(spec)
	if err != nil {
		t.Fatal(err)
	}
	leaseKey := coord.LeaseKey(id)

	dir := t.TempDir()
	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stalling := newStallingBackend(t, int64(kill))
	c1 := coord.New(coord.Config{
		Store:       s1,
		Registry:    registryOf(stalling.URL),
		PerBackend:  1, // one unit in flight: progress stalls exactly at the kill point
		UnitTimeout: time.Hour,
	})
	if _, _, err := c1.Submit(spec); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st, err := c1.Status(id); err == nil && st.Done >= kill {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached the drawn kill point (%d units)", kill)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c1.Close() // the process dies mid-campaign

	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := coord.New(coord.Config{Store: s2, Workers: 2})
	t.Cleanup(c2.Close)
	if _, created, err := c2.Submit(spec); err != nil {
		t.Fatal(err)
	} else if created {
		t.Error("takeover coordinator created a fresh job instead of resuming the persisted record")
	}
	st := awaitTerminal(t, c2, id)
	if st.State != coord.StateDone {
		t.Fatalf("resumed job ended %s: %s", st.State, st.Error)
	}
	res, err := c2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res.Sessions)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != baseline {
		t.Error("resumed campaign differs from local baseline")
	}
	st1, st2 := c1.Stats(), c2.Stats()
	if st1.UnitsComputed+st2.UnitsComputed != uint64(total) {
		t.Errorf("owners computed %d + %d units, want exactly %d across the kill",
			st1.UnitsComputed, st2.UnitsComputed, total)
	}
	if st2.UnitsReplayed != st1.UnitsComputed {
		t.Errorf("takeover replayed %d units, want the %d the dead owner finished",
			st2.UnitsReplayed, st1.UnitsComputed)
	}
	if s2.Has(leaseKey) {
		t.Error("lease leaked after the takeover owner finished")
	}
}

// TestChaosCombinedPlan turns network and disk faults on at once
// under a coordinator-driven fleet — the full stack absorbing refused
// connections, 5xx, flipped bits and evictions in one campaign.
func TestChaosCombinedPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaigns in -short mode")
	}
	checkGoroutines(t)
	units := chaosUnits(6)
	baseline := localUnitsJSON(t, units)
	plan := chaos.NewPlan(chaosSeed(t, "combined", 401), chaos.Budget{
		Refused: 60, Err5xx: 60, Latency: 60, MaxLatency: 10 * time.Millisecond,
		BitFlip: 40, Evict: 40,
	})
	reportPlan(t, "combined", plan)

	s, err := store.Open(t.TempDir(), store.WithFS(plan.FS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	a, b := newChaosBackend(t), newChaosBackend(t)
	c := coord.New(coord.Config{
		Store:    s,
		Registry: registryOf(a.URL, b.URL),
		Workers:  2,
		HTTPClient: &http.Client{
			Transport: plan.Transport(nil),
		},
		Retry: retry.Policy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	t.Cleanup(c.Close)
	spec := coord.JobSpec{Kind: "sessions", Units: units}
	id, err := coord.JobID(spec)
	if err != nil {
		t.Fatal(err)
	}
	leaseKey := coord.LeaseKey(id)
	if _, _, err := c.Submit(spec); err != nil {
		var fe *chaos.FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("untyped submit failure under chaos: %v", err)
		}
		return
	}
	st := awaitTerminal(t, c, id)
	switch st.State {
	case coord.StateDone:
		res, err := c.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res.Sessions)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != baseline {
			t.Error("combined-fault campaign differs from local baseline")
		}
	default:
		if !strings.Contains(st.Error, "chaos: injected") {
			t.Errorf("job failed for a non-injected reason: %s: %s", st.State, st.Error)
		}
	}
	requireInjection(t, plan)
	assertReplay(t, plan)
	if s.Has(leaseKey) {
		t.Error("lease leaked after terminal state")
	}
}

// TestChaosUnabsorbableFaultIsTyped pins the error contract at the
// lowest client primitive, whose request round trip every fleet
// client attempt (coord jobs included) shares: a fault nothing above
// it can absorb must reach the caller as a *chaos.FaultError —
// matchable with errors.As, never a silent wrong answer or an
// anonymous string.
func TestChaosUnabsorbableFaultIsTyped(t *testing.T) {
	checkGoroutines(t)
	backend := newChaosBackend(t)
	plan := chaos.NewPlan(chaosSeed(t, "unabsorbable", 501), chaos.Budget{Refused: 1000})
	reportPlan(t, "unabsorbable", plan)
	httpc := &http.Client{Transport: plan.Transport(nil)}
	_, err := remote.PostUnit[core.StudyUnit, core.StudyUnitResult](
		context.Background(), httpc, backend.URL+remote.SessionPath, chaosUnits(1)[0], time.Minute)
	if err == nil {
		t.Fatal("total-refusal plan let a unit through")
	}
	var fe *chaos.FaultError
	if !errors.As(err, &fe) || fe.Kind != chaos.KindRefused {
		t.Fatalf("unabsorbable fault not typed: %v", err)
	}
}
