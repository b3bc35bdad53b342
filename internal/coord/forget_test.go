package coord

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/store"
)

// TestFinishedJobsAreBounded: a long-lived coordinator that keeps
// receiving new campaigns — fx8d's /v1/sweep with ever new seeds —
// tracks at most maxFinished finished jobs in memory, and its job
// index keeps every unfinished job but only the newest finished ones.
// A forgotten job is still found done through its stored record,
// without a rerun.
func TestFinishedJobsAreBounded(t *testing.T) {
	t.Parallel()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{Store: s, Workers: 1})
	defer c.Close()

	// An interrupted job, recorded before all the others.
	spec := func(seed uint64) JobSpec {
		sess := core.SessionSpec{Samples: 1, Sampling: monitor.SampleSpec{Snapshots: 1, GapCycles: 2_000}, Seed: seed}
		return JobSpec{Kind: "sessions", Units: []core.StudyUnit{{ID: 1, Random: &sess}}}
	}
	stale, err := JobID(spec(1))
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := c.putRecord(JobRecord{ID: stale, Spec: spec(1), State: StateRunning, Total: 1, Created: old, Updated: old}); err != nil {
		t.Fatal(err)
	}
	c.addToIndex(stale)

	n := 2*maxFinished + 1
	ids := make([]string, n)
	for i := range ids {
		st, _, err := c.Submit(spec(uint64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		if final, err := c.Wait(context.Background(), st.ID); err != nil || final.State != StateDone {
			t.Fatalf("job %d = %+v, %v; want done", i, final, err)
		}
		ids[i] = st.ID
	}

	c.mu.Lock()
	tracked := len(c.jobs)
	c.mu.Unlock()
	if tracked > maxFinished {
		t.Errorf("%d jobs tracked after %d finished, want at most %d", tracked, n, maxFinished)
	}
	index, _ := c.loadIndex()
	if len(index) > 2*maxFinished {
		t.Errorf("job index holds %d entries, want at most %d", len(index), 2*maxFinished)
	}
	if !slices.Contains(index, stale) {
		t.Error("the interrupted job was pruned from the index; ResumeInterrupted would never find it")
	}
	if !slices.Contains(index, ids[n-1]) {
		t.Error("the newest job is missing from the index")
	}

	if c.lookup(ids[0]) != nil {
		t.Fatalf("the oldest job is still tracked")
	}
	if st, err := c.Status(ids[0]); err != nil || st.State != StateDone {
		t.Errorf("Status of a forgotten job = %+v, %v; want done from its stored record", st, err)
	}
	if st, _, err := c.Submit(spec(100)); err != nil || st.State != StateDone {
		t.Errorf("resubmitting a forgotten job = %+v, %v; want done", st, err)
	}
	if got := c.Stats().UnitsComputed; got != uint64(n) {
		t.Errorf("computed %d units, want %d: a forgotten job was rerun", got, n)
	}
}
