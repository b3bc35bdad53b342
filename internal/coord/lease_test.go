package coord_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/store"
)

// leaseFlakyFS makes lease writes fail: renames whose target is the
// job's lease entry error out, everything else passes through.  The
// store stays readable and record/unit writes keep working — exactly
// the "store briefly unwritable for the lease" failure mode the
// keepLease loop must survive or cleanly stand down from.
type leaseFlakyFS struct {
	store.FS
	leaseFile string       // base name of the lease entry
	attempts  atomic.Int64 // lease-rename attempts seen
	failFirst int64        // attempts 1..failFirst fail; < 0 means always fail
	healed    atomic.Bool  // once set, every lease write succeeds
}

func (f *leaseFlakyFS) Rename(oldpath, newpath string) error {
	if filepath.Base(newpath) == f.leaseFile && !f.healed.Load() {
		n := f.attempts.Add(1)
		if f.failFirst < 0 || n <= f.failFirst {
			return errors.New("injected: lease write failed")
		}
	}
	return f.FS.Rename(oldpath, newpath)
}

// stallingUnitBackend serves real session units for the first
// serveFirst requests, then parks further requests until release is
// closed.  canceled is signaled once when a parked request's context
// is canceled — the observable moment a coordinator stood down.
func stallingUnitBackend(t *testing.T, serveFirst int64, release <-chan struct{}) (srv *httptest.Server, canceled <-chan struct{}) {
	t.Helper()
	cancelCh := make(chan struct{})
	var once sync.Once
	var served atomic.Int64
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var u core.StudyUnit
		if err := json.NewDecoder(r.Body).Decode(&u); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if served.Add(1) > serveFirst {
			select {
			case <-release:
			case <-r.Context().Done():
				once.Do(func() { close(cancelCh) })
				return
			}
		}
		res, err := core.RunStudyUnit(u)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(res)
	}))
	t.Cleanup(srv.Close)
	return srv, cancelCh
}

// The invariant under test: a coordinator whose lease refreshes fail
// mid-run either keeps the lease (failure window shorter than the
// TTL, refresh retried and recovered) or cleanly loses the job to a
// peer (window longer than the TTL) — but the two owners never
// compute concurrently, so no unit is ever executed twice.  Asserted
// via the coordinators' compute counters.
func TestLeaseRefreshFailureMidRun(t *testing.T) {
	t.Run("loses cleanly to peer", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		spec := coord.JobSpec{Kind: "sessions", Units: sessionUnits(8)}
		id, err := coord.JobID(spec)
		if err != nil {
			t.Fatal(err)
		}
		leaseKey := coord.LeaseKey(id)

		// c1's store: every lease refresh fails, forever.
		flaky := &leaseFlakyFS{FS: store.OS(), leaseFile: leaseKey + ".fx8s", failFirst: -1}
		s1, err := store.Open(dir, store.WithFS(flaky))
		if err != nil {
			t.Fatal(err)
		}
		release := make(chan struct{})
		defer close(release)
		srv, canceled := stallingUnitBackend(t, 3, release)

		reg := coord.NewRegistry()
		reg.Register(srv.URL, time.Minute)
		c1 := coord.New(coord.Config{
			Store: s1, Registry: reg,
			PerBackend: 1, LeaseTTL: 600 * time.Millisecond,
		})
		defer c1.Close()
		if _, _, err := c1.Submit(spec); err != nil {
			t.Fatal(err)
		}

		// c1 serves three units, stalls on the fourth, and — unable to
		// refresh its lease before it expires — self-fences: the run
		// context is canceled, which aborts the parked request.
		select {
		case <-canceled:
		case <-time.After(30 * time.Second):
			t.Fatal("c1 never stood down after its lease refreshes failed past the TTL")
		}
		if n := c1.Stats().UnitsComputed; n != 3 {
			t.Fatalf("c1 computed %d units before standing down, want 3", n)
		}

		// c2: clean store on the same directory, no backends.  It
		// takes over the expired lease and finishes the job, replaying
		// c1's three completed units from the cache.
		s2, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		c2 := coord.New(coord.Config{Store: s2, Workers: 2})
		defer c2.Close()
		if _, _, err := c2.Submit(spec); err != nil {
			t.Fatal(err)
		}
		st := await(t, c2, id)
		if st.State != coord.StateDone {
			t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
		}

		// Exactly-once across the handover: c1's and c2's computed
		// units partition the job — nothing ran twice, nothing was
		// lost — and c2 replayed precisely what c1 had finished.
		st1, st2 := c1.Stats(), c2.Stats()
		if st1.UnitsComputed+st2.UnitsComputed != 8 {
			t.Errorf("computed %d + %d units across owners, want exactly 8 (a unit ran twice or was lost)",
				st1.UnitsComputed, st2.UnitsComputed)
		}
		if st2.UnitsReplayed != st1.UnitsComputed {
			t.Errorf("c2 replayed %d units, want c1's %d completions", st2.UnitsReplayed, st1.UnitsComputed)
		}
		if s2.Has(leaseKey) {
			t.Error("lease entry leaked after the takeover owner finished")
		}
	})

	t.Run("keeps lease on recovery", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		spec := coord.JobSpec{Kind: "sessions", Units: sessionUnits(4)}
		id, err := coord.JobID(spec)
		if err != nil {
			t.Fatal(err)
		}
		leaseKey := coord.LeaseKey(id)

		// The first two lease refresh attempts fail, then the store
		// recovers — a failure window much shorter than the TTL.
		flaky := &leaseFlakyFS{FS: store.OS(), leaseFile: leaseKey + ".fx8s", failFirst: 2}
		s1, err := store.Open(dir, store.WithFS(flaky))
		if err != nil {
			t.Fatal(err)
		}
		release := make(chan struct{})
		srv, _ := stallingUnitBackend(t, 2, release)

		reg := coord.NewRegistry()
		reg.Register(srv.URL, time.Minute)
		c1 := coord.New(coord.Config{
			Store: s1, Registry: reg,
			PerBackend: 1, LeaseTTL: 3 * time.Second,
		})
		defer c1.Close()
		if _, _, err := c1.Submit(spec); err != nil {
			t.Fatal(err)
		}

		// Hold the job mid-run until the refresh loop has exercised
		// the failure window and recovered (attempt 3 succeeds).
		deadline := time.Now().Add(30 * time.Second)
		for flaky.attempts.Load() < 3 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if flaky.attempts.Load() < 3 {
			t.Fatal("lease refresh never retried through the failure window")
		}
		close(release)

		st := await(t, c1, id)
		if st.State != coord.StateDone {
			t.Fatalf("job ended %s (%s), want done — a recovered refresh must keep the lease", st.State, st.Error)
		}
		if n := c1.Stats().UnitsComputed; n != 4 {
			t.Errorf("c1 computed %d units, want all 4 — no peer ever owned this job", n)
		}
		if s1.Has(leaseKey) {
			t.Error("lease entry leaked after the job finished")
		}
	})
}

// TestAbandonedJobIsTakenOver: a job whose owner stopped running it
// without finishing must not stay stuck for the coordinator that
// submits or awaits it next.  Once the owner's lease expires, a
// Submit claims the job again, and a Wait that follows a job it does
// not run takes it over.
func TestAbandonedJobIsTakenOver(t *testing.T) {
	const ttl = 600 * time.Millisecond
	t.Run("lease lost here, resubmitted here", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		spec := coord.JobSpec{Kind: "sessions", Units: sessionUnits(8)}
		id, err := coord.JobID(spec)
		if err != nil {
			t.Fatal(err)
		}
		leaseKey := coord.LeaseKey(id)
		flaky := &leaseFlakyFS{FS: store.OS(), leaseFile: leaseKey + ".fx8s", failFirst: -1}
		s, err := store.Open(dir, store.WithFS(flaky))
		if err != nil {
			t.Fatal(err)
		}
		release := make(chan struct{})
		srv, canceled := stallingUnitBackend(t, 3, release)
		reg := coord.NewRegistry()
		reg.Register(srv.URL, time.Minute)
		c := coord.New(coord.Config{Store: s, Registry: reg, PerBackend: 1, LeaseTTL: ttl})
		defer c.Close()
		if _, _, err := c.Submit(spec); err != nil {
			t.Fatal(err)
		}
		select {
		case <-canceled:
		case <-time.After(30 * time.Second):
			t.Fatal("the coordinator never stood down after its lease refreshes failed past the TTL")
		}

		// The store heals and the backend serves again: the same
		// coordinator's next submission must finish the job.
		flaky.healed.Store(true)
		close(release)
		if _, _, err := c.Submit(spec); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		final, err := c.Wait(ctx, id)
		if err != nil || final.State != coord.StateDone {
			t.Fatalf("resubmitted job = %+v, %v; want done", final, err)
		}
		if got := c.Stats(); got.UnitsComputed != 8 || got.UnitsReplayed != 3 {
			t.Errorf("stats = %+v, want 8 computed (3 before the loss) and 3 replayed", got)
		}
	})

	t.Run("peer died, awaited here", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		s := openStore(t, dir)
		spec := coord.JobSpec{Kind: "sessions", Units: sessionUnits(4)}
		id, err := coord.JobID(spec)
		if err != nil {
			t.Fatal(err)
		}
		// A dead peer's leftovers: its record says running and its
		// lease, never refreshed again, is still live for one TTL.
		recKey, err := store.Key("job/v1", id)
		if err != nil {
			t.Fatal(err)
		}
		leaseKey := coord.LeaseKey(id)
		now := time.Now()
		rec := coord.JobRecord{ID: id, Spec: spec, State: coord.StateRunning, Total: 4, Created: now, Updated: now}
		lease := map[string]any{"owner": "dead-peer", "expires": now.Add(ttl)}
		if err := store.PutJSON(s, recKey, rec); err != nil {
			t.Fatal(err)
		}
		if err := store.PutJSON(s, leaseKey, lease); err != nil {
			t.Fatal(err)
		}

		c := coord.New(coord.Config{Store: s, Workers: 2, LeaseTTL: ttl})
		defer c.Close()
		if st, _, err := c.Submit(spec); err != nil || st.State != coord.StateRunning {
			t.Fatalf("Submit under the peer's live lease = %+v, %v; want the peer's running record", st, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		final, err := c.Wait(ctx, id)
		if err != nil || final.State != coord.StateDone {
			t.Fatalf("awaited job = %+v, %v; want done once the dead peer's lease expired", final, err)
		}
		if got := c.Stats(); got.UnitsComputed != 4 || got.JobsResumed != 1 {
			t.Errorf("stats = %+v, want the 4 units computed here by one resumed job", got)
		}
		if s.Has(leaseKey) {
			t.Error("lease entry leaked after the takeover finished")
		}
	})
}

// TestTerminalStateFollowsLeaseRelease pins the finalize order: by
// the time Status first reports a terminal state, the terminal record
// is persisted and the lease is gone — including a lease refresh that
// was in flight when the job finished, which a short TTL makes
// frequent.
func TestTerminalStateFollowsLeaseRelease(t *testing.T) {
	t.Parallel()
	s := openStore(t, t.TempDir())
	c := coord.New(coord.Config{Store: s, Workers: 2, LeaseTTL: 15 * time.Millisecond})
	defer c.Close()
	spec := coord.JobSpec{Kind: "sessions", Units: sessionUnits(3)}
	id, err := coord.JobID(spec)
	if err != nil {
		t.Fatal(err)
	}
	leaseKey := coord.LeaseKey(id)
	recKey, err := store.Key("job/v1", id)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if coord.TerminalState(st.State) {
			if s.Has(leaseKey) {
				t.Fatalf("lease still held when Status first reported %s", st.State)
			}
			var rec coord.JobRecord
			if !store.GetJSON(s, recKey, &rec) || rec.State != st.State {
				t.Fatalf("persisted record is %q when Status first reported %s", rec.State, st.State)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a terminal state")
		}
		runtime.Gosched()
	}
}
