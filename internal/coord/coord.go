// Package coord is the fleet campaign coordinator: it turns
// campaigns into persistent, resumable job resources.
//
// A job is identified by its spec — the canonical JSON of a JobSpec
// hashes to the job ID — and is persisted as a JobRecord in the
// campaign store under the job/v1 namespace: spec, state machine
// (queued → running → done/failed/canceled), progress counts, and the
// per-unit completion keys.  Unit results
// themselves ride the existing content-addressed unit caches
// (SessionUnitNamespace, SweepUnitNamespace), the same entries fx8d's
// POST /v1/run/* endpoints write; the checkpoint is therefore nothing
// more than the cache filling up, and resuming a half-finished
// campaign — after a coordinator restart, a daemon crash, a kill
// -9 — is a replay of store hits: only units whose entries are absent
// are recomputed.
//
// Execution runs on the same fleet scheduler as sharded -backends
// runs: each job builds a remote.Client whose membership is the
// coordinator's Registry (fed by POST /v1/backends/register
// heartbeats), so units go to the least-loaded live backend, a failed
// unit is rerouted, a slow one hedged, a backend that keeps failing is
// quarantined, and a unit no backend can serve — or every unit, with
// no backends at all — is computed in-process.  Units are dispatched
// one at a time and each result is checkpointed as it lands.  The job
// ID rides every unit POST as its X-Request-Id, so GET
// /v1/trace/{jobID} on the backends reconstructs the job.  Either way
// the assembled result is byte-identical to local execution, because
// units are pure functions of their spec and assembly reduces them in
// canonical unit order.
//
// Exactly-once across coordinators is a store lease: before running a
// job, a coordinator claims the job's lease key with store.Claim
// (O_EXCL semantics), so two coordinators racing on the same job ID
// lease it exactly once; the loser tracks the job read-through from
// the store.  Leases carry a TTL and are refreshed while the job
// runs — an expired lease is taken over, so a coordinator that died
// without releasing does not wedge its jobs.
//
// Close stops execution but deliberately leaves running jobs' records
// in state running with their leases released: that is the resumable
// state ResumeInterrupted looks for at the next startup.
package coord

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/retry"
	"repro/internal/store"
)

// Defaults for Config's zero fields.
const (
	DefaultPerBackend = 4
	DefaultLeaseTTL   = 30 * time.Second
)

// checkpointEvery throttles mid-run record persists: completions
// within this window coalesce into one write.
const checkpointEvery = 200 * time.Millisecond

// maxFinished bounds the finished jobs a coordinator remembers: those
// it keeps tracked in memory, and those the store's job index lists
// beside the unfinished ones.  The oldest are forgotten first.  A
// forgotten job's record stays in the store, so Status, Result and
// Submit still find it there; a memory-only coordinator forgets it
// outright and reruns it on the next Submit.
const maxFinished = 128

// Sentinel errors, mapped to HTTP statuses by the service layer.
var (
	// ErrNotFound: no job under that ID.
	ErrNotFound = errors.New("coord: job not found")

	// ErrTerminal: the operation needs a live job but the job already
	// finished (cancelling a done job).
	ErrTerminal = errors.New("coord: job already terminal")

	// ErrNotDone: the job's result was requested before it finished.
	ErrNotDone = errors.New("coord: job not done")
)

// Config sizes a Coordinator.
type Config struct {
	// Store persists job records, leases and unit results.  nil runs
	// memory-only: jobs work but nothing survives a restart and no
	// cross-coordinator exclusion happens.
	Store *store.Store

	// Registry supplies fleet membership.  nil (or an empty registry)
	// computes every unit in-process.
	Registry *Registry

	// Workers bounds in-process compute for jobs run while no backend
	// is registered; 0 means one worker per CPU.
	Workers int

	// PerBackend is how many units are kept in flight per live
	// backend; 0 means DefaultPerBackend, matching fx8d's default
	// admission budget.
	PerBackend int

	// MaxFailures is how many failed units quarantine a backend for
	// the rest of a job; 0 means remote.DefaultMaxFailures.
	MaxFailures int

	// LeaseTTL is the job-ownership lease duration; the lease is
	// refreshed at a third of this. 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration

	// UnitTimeout bounds one unit POST to one backend; 0 means
	// remote.DefaultUnitTimeout.
	UnitTimeout time.Duration

	// Retry is the retry/backoff policy for dispatch and lease
	// refreshes: it is each job's remote.Config.Retry (a fleet that is
	// merely shedding is waited out, honoring Retry-After), and lease
	// refreshes that hit a briefly-unwritable store are retried under
	// it instead of silently dropped.  The zero value means the retry
	// package defaults; its Metrics field is resolved to the
	// coordinator's own (see RetryStats).
	Retry retry.Policy

	// HTTPClient overrides the dispatch transport (tests).
	HTTPClient *http.Client
}

// Stats counts a coordinator's unit outcomes since New.
type Stats struct {
	// UnitsComputed were executed (remotely or locally) by this
	// coordinator's jobs.
	UnitsComputed uint64

	// UnitsReplayed were satisfied from the store's unit cache —
	// checkpoint hits, the currency of resume.
	UnitsReplayed uint64

	// UnitsStolen were moved off the backend first picked for them:
	// the job clients' reroutes plus hedges.
	UnitsStolen uint64

	// JobsResumed counts jobs restarted from a persisted record.
	JobsResumed uint64

	// StoreErrors counts failed writes of unit results and campaign
	// artefacts.  A lost write costs a recompute later, never a job.
	StoreErrors uint64
}

// job is one locally-tracked job: its record, live counters, and —
// when this coordinator owns the lease — its execution state.
type job struct {
	mu        sync.Mutex
	rec       JobRecord
	steals    uint64
	lastCkpt  time.Time
	userStop  bool // Cancel() was called, as opposed to Close()
	leaseLost bool // ownership moved to a peer mid-run
	cancel    context.CancelFunc
	done      chan struct{} // closed when the run goroutine returns
}

// live reports whether this coordinator is running the job: it won
// the lease and the run goroutine has not returned.
func (j *job) live() bool {
	select {
	case <-j.done:
		return false
	default:
		return true
	}
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return statusFrom(j.rec, j.steals)
}

func statusFrom(rec JobRecord, steals uint64) JobStatus {
	s := JobStatus{
		ID:      rec.ID,
		Kind:    rec.Spec.Kind,
		State:   rec.State,
		Done:    rec.Done,
		Total:   rec.Total,
		Steals:  steals,
		Error:   rec.Error,
		Created: rec.Created,
		Updated: rec.Updated,
	}
	s.Summary = fmt.Sprintf("%d/%d units complete", s.Done, s.Total)
	if steals > 0 {
		s.Summary += fmt.Sprintf(" (%d stolen)", steals)
	}
	return s
}

// Coordinator runs and tracks campaign jobs.  All methods are safe
// for concurrent use.
type Coordinator struct {
	cfg      Config
	owner    string         // lease identity of this coordinator
	retry    retry.Policy   // resolved dispatch/lease retry policy
	rmetrics *retry.Metrics // retry outcome counters, see RetryStats

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool

	// submitMu serializes Submit and Purge: within one coordinator the
	// call that claims a job's lease is the one that tracks and starts
	// it, and the job index's read-modify-write never interleaves.
	submitMu sync.Mutex

	mu   sync.Mutex
	jobs map[string]*job

	// results holds done jobs' payloads, bounded like the campaign
	// memo; an evicted payload is reloaded from the store.
	results engine.Memo[string, *JobResult]

	computed, replayed, stolen, resumed, storeErrors atomic.Uint64
}

// New returns a Coordinator.  Call ResumeInterrupted after New to
// pick up jobs a previous process left half-finished, and Close on
// shutdown.
func New(cfg Config) *Coordinator {
	if cfg.PerBackend <= 0 {
		cfg.PerBackend = DefaultPerBackend
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	c := &Coordinator{
		cfg:   cfg,
		owner: obs.NewRequestID(),
		jobs:  make(map[string]*job),
	}
	c.results.MaxEntries = core.DefaultMemoEntries
	c.retry = cfg.Retry
	c.rmetrics = c.retry.Metrics
	if c.rmetrics == nil {
		c.rmetrics = &retry.Metrics{}
		c.retry.Metrics = c.rmetrics
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	return c
}

// Registry returns the coordinator's fleet registry — the one POST
// /v1/backends/register must feed for this coordinator to dispatch.
func (c *Coordinator) Registry() *Registry {
	return c.cfg.Registry
}

// Stats returns a snapshot of the coordinator's unit outcomes.
func (c *Coordinator) Stats() Stats {
	return Stats{
		UnitsComputed: c.computed.Load(),
		UnitsReplayed: c.replayed.Load(),
		UnitsStolen:   c.stolen.Load(),
		JobsResumed:   c.resumed.Load(),
		StoreErrors:   c.storeErrors.Load(),
	}
}

// RetryStats snapshots the coordinator's retry-policy outcomes —
// dispatch retries, backoff waits, give-ups — which the service
// surfaces in /v1/metrics.
func (c *Coordinator) RetryStats() retry.Snapshot {
	return c.rmetrics.Snapshot()
}

// Submit registers the job for spec and starts it if this coordinator
// wins its lease.  Submission is idempotent: the same spec addresses
// the same job, so created reports whether the job is new (the
// service's 201 vs 200).  A job running here, or done with its result
// still at hand, is returned as is; a failed or canceled job is
// rerun, and so is a done one whose result is gone (evicted from a
// memory-only coordinator, or its artefact from the store).  Any
// other unfinished job — a peer runs it, or its run here stopped short
// — is claimed afresh, which takes over the lease once it expired.
// The returned state is queued exactly when this call started the job.
//
// A study or sweep job whose campaign artefact is already in the
// store — written by an earlier job or by the CLI tools — is recorded
// done at once, without computing a unit.
func (c *Coordinator) Submit(spec JobSpec) (JobStatus, bool, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, false, err
	}
	id, err := JobID(spec)
	if err != nil {
		return JobStatus{}, false, err
	}
	_, _, keys := specUnits(spec)

	c.submitMu.Lock()
	defer c.submitMu.Unlock()
	tracked := c.lookup(id)
	st, err := c.Status(id)
	known := err == nil
	switch {
	case !known, st.State == StateFailed, st.State == StateCanceled:
	case st.State == StateDone && !c.resultAvailable(id, spec, keys):
	case st.State == StateDone, tracked != nil && tracked.live():
		return st, false, nil
	}
	// A persisted, non-terminal record nobody here runs: its owner was
	// interrupted or died, and this submission resumes it.
	resume := known && !TerminalState(st.State)

	now := time.Now()
	rec := JobRecord{
		ID: id, Spec: spec, State: StateQueued,
		Total: len(keys), UnitKeys: keys,
		Created: now, Updated: now,
	}
	if known {
		rec.Created = st.Created
	}
	if spec.Kind != "sessions" && c.resultAvailable(id, spec, keys) {
		rec.State, rec.Done = StateDone, rec.Total
		// Not indexed: the index is for resuming and listing runs.
		if err := c.putRecord(rec); err != nil {
			return JobStatus{}, false, err
		}
		return c.track(rec, false).status(), !known, nil
	}

	won, err := c.acquireLease(id)
	if err != nil {
		return JobStatus{}, false, err
	}
	j := c.track(rec, won)
	if !won {
		// Another coordinator owns it; Status reads through the store.
		st, _ := c.Status(id)
		return st, !known, nil
	}
	if resume {
		c.resumed.Add(1)
	}
	c.persist(j)
	c.addToIndex(id)
	st = j.status()
	c.start(j)
	return st, !known, nil
}

// resultAvailable reports whether a done job's payload can still be
// served: resident in memory, or its artefact — the study or sweep
// entry, or every unit entry of a sessions job — in the store.
func (c *Coordinator) resultAvailable(id string, spec JobSpec, keys []string) bool {
	if _, ok := c.results.Peek(id); ok || c.cfg.Store == nil {
		return ok
	}
	if key := artefactKey(spec); key != "" {
		return c.cfg.Store.Has(key)
	}
	for _, key := range keys {
		if !c.cfg.Store.Has(key) {
			return false
		}
	}
	return true
}

// lookup returns the locally tracked job id, or nil.
func (c *Coordinator) lookup(id string) *job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

// track registers a job locally, replacing an earlier entry of the
// same ID.  A job owned elsewhere has no run goroutine here, so its
// done channel starts closed.
func (c *Coordinator) track(rec JobRecord, owned bool) *job {
	j := &job{rec: rec, done: make(chan struct{})}
	if !owned {
		close(j.done)
	}
	c.mu.Lock()
	c.jobs[rec.ID] = j
	c.forgetFinished()
	c.mu.Unlock()
	return j
}

// forgetFinished drops the oldest tracked jobs not running here once
// more than maxFinished are tracked, keeping the newest half of them,
// so the scan runs once per maxFinished/2 tracked jobs.  Callers hold
// c.mu.
func (c *Coordinator) forgetFinished() {
	if len(c.jobs) <= maxFinished {
		return
	}
	var finished []JobRecord
	for _, j := range c.jobs {
		if !j.live() {
			j.mu.Lock()
			finished = append(finished, j.rec)
			j.mu.Unlock()
		}
	}
	for _, rec := range newestFirst(finished)[min(len(finished), maxFinished/2):] {
		delete(c.jobs, rec.ID)
	}
}

// newestFirst sorts records by last update, newest first.
func newestFirst(recs []JobRecord) []JobRecord {
	sort.Slice(recs, func(a, b int) bool { return recs[a].Updated.After(recs[b].Updated) })
	return recs
}

// view returns job id's current record and steal count.  The local
// copy is current while this coordinator runs the job and once the job
// ended here; otherwise — a peer runs it, or the run here stopped
// short (Close, a lost lease) — the stored record is.
func (c *Coordinator) view(id string) (rec JobRecord, steals uint64, ok bool) {
	j := c.lookup(id)
	if j != nil {
		j.mu.Lock()
		rec, steals = j.rec, j.steals
		j.mu.Unlock()
		if c.cfg.Store == nil || j.live() || TerminalState(rec.State) {
			return rec, steals, true
		}
	}
	if stored, ok := c.loadRecord(id); ok {
		return stored, 0, true
	}
	return rec, steals, j != nil
}

// Status returns a job's current state: live for jobs this
// coordinator runs, read through the store for jobs it does not.
func (c *Coordinator) Status(id string) (JobStatus, error) {
	rec, steals, ok := c.view(id)
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return statusFrom(rec, steals), nil
}

// List returns every known job — local ones and those recorded in the
// store's job index — sorted by creation time, then ID.
func (c *Coordinator) List() []JobStatus {
	ids, _ := c.loadIndex()
	c.mu.Lock()
	for id := range c.jobs {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	seen := make(map[string]bool)
	var out []JobStatus
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		if st, err := c.Status(id); err == nil {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Created.Equal(out[k].Created) {
			return out[i].Created.Before(out[k].Created)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Cancel stops a job.  Cancelling a job this coordinator runs aborts
// its in-flight unit POSTs, persists state canceled and releases the
// lease before returning; a job recorded elsewhere is marked canceled
// in the store, and the canceled status is returned only once that
// write succeeded.  Cancelling a terminal job reports ErrTerminal.
func (c *Coordinator) Cancel(id string) (JobStatus, error) {
	if j := c.lookup(id); j != nil && j.live() {
		j.mu.Lock()
		terminal := TerminalState(j.rec.State)
		j.userStop = !terminal
		cancel := j.cancel
		j.mu.Unlock()
		if terminal {
			return j.status(), ErrTerminal
		}
		if cancel != nil {
			cancel()
		}
		<-j.done
		return j.status(), nil
	}
	rec, _, ok := c.view(id)
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	if TerminalState(rec.State) {
		return statusFrom(rec, 0), ErrTerminal
	}
	rec.State = StateCanceled
	rec.Updated = time.Now()
	if err := c.putRecord(rec); err != nil {
		return JobStatus{}, err
	}
	return statusFrom(rec, 0), nil
}

// Result returns a done job's payload: from memory when this
// coordinator holds it, otherwise re-read from the store's
// content-addressed artefacts (the study under its study key, sweep
// points under their sweep key, session units from the unit cache)
// and kept in memory for the next call.
func (c *Coordinator) Result(id string) (*JobResult, error) {
	if res, ok := c.results.Peek(id); ok {
		return res, nil
	}
	rec, _, ok := c.view(id)
	if !ok {
		return nil, ErrNotFound
	}
	if rec.State != StateDone {
		return nil, fmt.Errorf("%w: job %s is %s", ErrNotDone, id, rec.State)
	}
	res, err := c.loadResult(rec)
	if err != nil {
		return nil, err
	}
	return c.results.Get(id, func() *JobResult { return res }), nil
}

// CachedResult returns a done job's payload if it is resident in
// memory — the cheap check in front of Submit for callers that serve
// the same campaigns repeatedly.
func (c *Coordinator) CachedResult(id string) (*JobResult, bool) {
	return c.results.Peek(id)
}

// Wait blocks until job id is terminal, ctx ends, or the coordinator
// closes, and returns the job's status then; a non-terminal state
// means the job was left resumable.  A job this coordinator runs is
// awaited on its run goroutine.  One it does not run — a peer owns it,
// or the run here lost its lease — is followed through the store and
// resubmitted every LeaseTTL, so a job whose owner died is taken over
// here once the owner's lease expires.
func (c *Coordinator) Wait(ctx context.Context, id string) (JobStatus, error) {
	retake := time.Now().Add(c.cfg.LeaseTTL)
	for {
		j := c.lookup(id)
		if j == nil {
			return c.Status(id)
		}
		select {
		case <-j.done:
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		}
		st, err := c.Status(id)
		if err != nil || TerminalState(st.State) || c.closed.Load() {
			return st, err
		}
		if time.Now().After(retake) {
			j.mu.Lock()
			spec := j.rec.Spec
			j.mu.Unlock()
			if _, _, err := c.Submit(spec); err != nil {
				return st, err
			}
			retake = time.Now().Add(c.cfg.LeaseTTL)
			continue
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		case <-c.ctx.Done():
			return c.Status(id)
		}
	}
}

// Purge forgets every finished job and drops the payloads held in
// memory, then purges the store: the next submission of a purged
// campaign starts from nothing.  Running jobs keep running.
func (c *Coordinator) Purge() error {
	c.submitMu.Lock()
	defer c.submitMu.Unlock()
	c.mu.Lock()
	for id, j := range c.jobs {
		if !j.live() {
			delete(c.jobs, id)
		}
	}
	c.mu.Unlock()
	c.results.Purge()
	if c.cfg.Store == nil {
		return nil
	}
	return c.cfg.Store.Purge()
}

// loadResult reassembles a done job's payload from the store.
func (c *Coordinator) loadResult(rec JobRecord) (*JobResult, error) {
	key := artefactKey(rec.Spec)
	var res JobResult
	switch rec.Spec.Kind {
	case "study":
		if store.GetJSON(c.cfg.Store, key, &res.Study) {
			return &res, nil
		}
	case "sweep":
		if store.GetJSON(c.cfg.Store, key, &res.Points) {
			return &res, nil
		}
	case "sessions":
		res.Sessions = make([]core.StudyUnitResult, len(rec.UnitKeys))
		for i, key := range rec.UnitKeys {
			if !store.GetJSON(c.cfg.Store, key, &res.Sessions[i]) {
				return nil, fmt.Errorf("coord: unit %d of job %s not in store", i, rec.ID)
			}
		}
		return &res, nil
	}
	return nil, fmt.Errorf("coord: %s artefact for job %s not in store", rec.Spec.Kind, rec.ID)
}

// ResumeInterrupted scans the job index for records left queued or
// running — a previous coordinator died or was closed mid-campaign —
// and resubmits each, so every one whose lease it can claim restarts.
// Thanks to the unit-cache checkpoint, a resumed job recomputes only
// units without store entries.  Returns how many jobs this
// coordinator resumed.
func (c *Coordinator) ResumeInterrupted() int {
	ids, _ := c.loadIndex()
	n := 0
	for _, id := range ids {
		rec, ok := c.loadRecord(id)
		if !ok || TerminalState(rec.State) {
			continue
		}
		if st, _, err := c.Submit(rec.Spec); err == nil && st.State == StateQueued {
			n++
		}
	}
	return n
}

// Close stops the coordinator: every running job's context is
// canceled, in-flight unit POSTs are aborted, and each job's record
// is left in state running with its store lease released — the
// resumable state, not a terminal one, so a successor (or a restarted
// process calling ResumeInterrupted) picks the campaign back up from
// its completed-unit set.
func (c *Coordinator) Close() {
	if c.closed.Swap(true) {
		return
	}
	c.cancel()
	c.wg.Wait()
}

// start marks a job running and launches its run goroutine.  A Cancel
// that found the job tracked but not yet started only set userStop;
// the run starts canceled and ends in state canceled.
func (c *Coordinator) start(j *job) {
	ctx, cancel := context.WithCancel(c.ctx)
	j.mu.Lock()
	j.rec.State = StateRunning
	j.cancel = cancel
	if j.userStop {
		cancel()
	}
	j.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer cancel()
		c.run(ctx, j)
	}()
}

// run executes a job to a terminal state — or, on coordinator
// shutdown, leaves it resumable.  The final state becomes observable
// only after its side effects: the terminal record is built on a copy
// and persisted, the lease heartbeat is stopped and has exited (so no
// refresh in flight can re-create the lease), the lease is released,
// and only then is the state published to Status.
func (c *Coordinator) run(ctx context.Context, j *job) {
	defer close(j.done)
	stopBeat := c.keepLease(ctx, j)
	c.persist(j)

	res, err := c.execute(ctx, j)

	j.mu.Lock()
	lost := j.leaseLost
	rec := j.rec
	switch {
	case err == nil:
		rec.State = StateDone
		rec.Done = rec.Total
	case j.userStop:
		rec.State = StateCanceled
		rec.Error = "canceled"
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		// Coordinator shutdown (Close) or a lost lease, not a failure:
		// leave the record in state running — the resumable state —
		// with the Done count advanced to the last completion.
	default:
		rec.State = StateFailed
		rec.Error = err.Error()
	}
	rec.Updated = time.Now()
	j.mu.Unlock()

	if lost && err != nil {
		// Ownership moved to a peer mid-run: the record and the lease
		// are the new owner's now.  Persisting would clobber the
		// peer's progress, and releaseLease would race its lease —
		// this coordinator just walks away.  (A job that completed
		// before the loss surfaced is still finalized: its units were
		// all stored, and the unit entries are identical
		// content-addressed values whoever writes them.)
		stopBeat()
	} else {
		// A failed write leaves the stored record resumable: the job
		// is redone from its unit cache, not lost.
		_ = c.putRecord(rec)
		stopBeat()
		c.releaseLease(rec.ID)
	}

	if err == nil {
		c.results.Get(rec.ID, func() *JobResult { return res })
	}
	j.mu.Lock()
	j.rec = rec
	j.mu.Unlock()
}

// execute runs a job's units and assembles its result; a study or
// sweep result is also stored under its campaign artefact key (see
// settle).
func (c *Coordinator) execute(ctx context.Context, j *job) (*JobResult, error) {
	j.mu.Lock()
	id, spec := j.rec.ID, j.rec.Spec
	j.mu.Unlock()
	study, sweep, keys := specUnits(spec)
	// The job ID is the trace ID of every unit POST.
	ctx = obs.WithRequestID(ctx, id)
	if sweep != nil {
		results, err := runUnits(ctx, c, j, sweep, keys, remote.NewSweepClient(c.fleetConfig()))
		if err != nil {
			return nil, err
		}
		c.settle(spec, results, keys)
		return &JobResult{Points: results}, nil
	}
	results, err := runUnits(ctx, c, j, study, keys, remote.NewStudyClient(c.fleetConfig()))
	if err != nil {
		return nil, err
	}
	if spec.Kind == "sessions" {
		return &JobResult{Sessions: results}, nil
	}
	st, err := core.AssembleStudy(*spec.Study, results)
	if err != nil {
		return nil, err
	}
	c.settle(spec, st, keys)
	return &JobResult{Study: st}, nil
}

// settle stores a campaign artefact — encoded as the CLI tools'
// -cache path encodes it — and, once it is written, deletes the job's
// unit entries: the artefact answers for them from then on, and
// keeping both would double the campaign's footprint in the store.
func (c *Coordinator) settle(spec JobSpec, artefact any, units []string) {
	if c.cfg.Store == nil {
		return
	}
	if err := store.PutJSON(c.cfg.Store, artefactKey(spec), artefact); err != nil {
		c.noteStore(err)
		return
	}
	for _, unit := range units {
		c.cfg.Store.Delete(unit)
	}
}

// noteStore counts a failed unit-result or artefact write.
func (c *Coordinator) noteStore(err error) {
	if err != nil {
		c.storeErrors.Add(1)
	}
}

// fleetConfig configures a job's fleet client from the coordinator's
// Config.  Units go one per request (BatchUnits 1), so every result
// is checkpointed the moment it lands and a killed coordinator loses
// only the units in flight.
func (c *Coordinator) fleetConfig() remote.Config {
	return remote.Config{
		Registry:    c.cfg.Registry,
		UnitTimeout: c.cfg.UnitTimeout,
		MaxFailures: c.cfg.MaxFailures,
		BatchUnits:  1,
		Retry:       c.retry,
		HTTPClient:  c.cfg.HTTPClient,
	}
}

// runUnits replays completed units from the store and runs the rest
// on the job's fleet client, PerBackend units in flight per live
// backend (or the local worker bound when no backend is registered).
func runUnits[U, R any](ctx context.Context, c *Coordinator, j *job, units []U, keys []string, fleet *remote.Client[U, R]) ([]R, error) {
	r := &jobRunner[U, R]{c: c, j: j, fleet: fleet, units: units, keys: keys, results: make([]R, len(units))}
	var pending []int
	for i := range units {
		if store.GetJSON(c.cfg.Store, keys[i], &r.results[i]) {
			c.replayed.Add(1)
			continue
		}
		pending = append(pending, i)
	}
	j.mu.Lock()
	j.rec.Done = len(units) - len(pending)
	workers := j.rec.Spec.Workers
	j.mu.Unlock()
	c.persist(j)
	if len(pending) == 0 {
		return r.results, ctx.Err()
	}

	if n := len(c.cfg.Registry.Snapshot()); n > 0 {
		workers = c.cfg.PerBackend * n
	} else if workers <= 0 {
		workers = c.cfg.Workers
	}
	_, err := engine.RunAll(ctx, workers, pending, r, nil)
	st := fleet.Stats()
	moved := st.Reroutes + st.Hedges
	c.stolen.Add(moved)
	j.mu.Lock()
	j.steals += moved
	j.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return r.results, nil
}

// jobRunner is a job's engine.Runner over unit indices: it runs unit
// i on the fleet client and checkpoints the result as it returns —
// the unit-cache entry first, then the progress count.
type jobRunner[U, R any] struct {
	c       *Coordinator
	j       *job
	fleet   *remote.Client[U, R]
	units   []U
	keys    []string
	results []R
}

// RunUnit implements engine.Runner.
func (r *jobRunner[U, R]) RunUnit(ctx context.Context, i int) (R, error) {
	if err := ctx.Err(); err != nil {
		// The job is over: skip the units the pool has yet to reach
		// rather than launching attempts only to abort them.
		var zero R
		return zero, err
	}
	res, err := r.fleet.RunUnit(ctx, r.units[i])
	if err != nil {
		return res, err
	}
	r.results[i] = res
	// A failed cache write costs only a recompute on resume.
	r.c.noteStore(store.PutJSON(r.c.cfg.Store, r.keys[i], res))
	r.c.computed.Add(1)
	j := r.j
	j.mu.Lock()
	j.rec.Done++
	// Record writes coalesce within checkpointEvery; the final
	// completion always checkpoints.
	due := j.rec.Done == j.rec.Total || time.Since(j.lastCkpt) >= checkpointEvery
	if due {
		j.lastCkpt = time.Now()
	}
	j.mu.Unlock()
	if due {
		r.c.persist(j)
	}
	return res, nil
}

// --- persistence helpers ---

// persist checkpoints a job's live record.
func (c *Coordinator) persist(j *job) {
	j.mu.Lock()
	j.rec.Updated = time.Now()
	rec := j.rec
	j.mu.Unlock()
	// Checkpoints are best effort: the unit cache, not the record's
	// Done count, is what resume trusts.
	_ = c.putRecord(rec)
}

// putRecord writes a job record to the store (no-op without one).
func (c *Coordinator) putRecord(rec JobRecord) error {
	return store.PutJSON(c.cfg.Store, recordKey(rec.ID), rec)
}

// loadRecord reads a job record; a corrupt or truncated record reads
// as a miss (the store removes it), so a damaged job simply restarts
// from its unit cache.
func (c *Coordinator) loadRecord(id string) (JobRecord, bool) {
	var rec JobRecord
	ok := store.GetJSON(c.cfg.Store, recordKey(id), &rec) && rec.ID == id
	return rec, ok
}

// loadIndex reads the job-ID index.
func (c *Coordinator) loadIndex() ([]string, bool) {
	var ids []string
	ok := store.GetJSON(c.cfg.Store, indexKey(), &ids)
	return ids, ok
}

// addToIndex merges id into the job index.  Callers hold submitMu, so
// merges within one coordinator never interleave.  Two coordinators
// sharing a store can still lose an ID to each other (last writer
// wins); records and leases are untouched, so that only narrows GET
// /v1/jobs and ResumeInterrupted for the lost job — an accepted cost
// of keeping the index a plain entry.
func (c *Coordinator) addToIndex(id string) {
	ids, _ := c.loadIndex()
	for _, have := range ids {
		if have == id {
			return
		}
	}
	if len(ids) >= 2*maxFinished {
		ids = c.pruneIndex(ids)
	}
	ids = append(ids, id)
	sort.Strings(ids)
	store.PutJSON(c.cfg.Store, indexKey(), ids)
}

// pruneIndex keeps the index's unfinished jobs and its newest
// maxFinished finished ones; jobs whose record is gone are dropped.
// Unfinished jobs are what ResumeInterrupted needs, so they are never
// pruned.
func (c *Coordinator) pruneIndex(ids []string) []string {
	var keep []string
	var finished []JobRecord
	for _, id := range ids {
		if rec, ok := c.loadRecord(id); ok && TerminalState(rec.State) {
			finished = append(finished, rec)
		} else if ok {
			keep = append(keep, id)
		}
	}
	for _, rec := range newestFirst(finished)[:min(len(finished), maxFinished)] {
		keep = append(keep, rec.ID)
	}
	return keep
}

// --- lease helpers ---

// acquireLease claims job ownership, taking over an expired lease.
func (c *Coordinator) acquireLease(id string) (bool, error) {
	if c.cfg.Store == nil {
		return true, nil
	}
	key := LeaseKey(id)
	lease := leaseRecord{Owner: c.owner, Expires: time.Now().Add(c.cfg.LeaseTTL)}
	won, err := store.ClaimJSON(c.cfg.Store, key, lease)
	if err != nil || won {
		return won, err
	}
	var cur leaseRecord
	if store.GetJSON(c.cfg.Store, key, &cur) && time.Now().Before(cur.Expires) {
		return false, nil // live lease held elsewhere
	}
	// Expired (or vanished between the claim and the read): take over.
	// The delete-then-claim window is racy, but Claim keeps the
	// takeover itself exactly-once.
	c.cfg.Store.Delete(key)
	lease.Expires = time.Now().Add(c.cfg.LeaseTTL)
	return store.ClaimJSON(c.cfg.Store, key, lease)
}

// keepLease refreshes a running job's lease at TTL/3 until the
// returned stop function is called or ctx ends, and — the other half
// of exactly-once — detects losing the lease.  Ownership is lost two
// ways: a peer's live lease appears under the key (it took over after
// ours expired), or refreshes keep failing past our own lease's
// expiry (the store is unwritable, so a peer is free to take over any
// moment — self-fence rather than risk two owners).  Either way the
// job's context is canceled: in-flight unit POSTs are aborted and the
// record is left resumable for the new owner, never finalized by both
// sides.  Refresh failures inside the window are retried under the
// coordinator's retry policy — a briefly-unwritable store costs
// backoff waits, not the lease.  stop returns only once the refresh
// goroutine has exited, so no refresh can land after it — a release
// that follows stop is final.
func (c *Coordinator) keepLease(ctx context.Context, j *job) (stop func()) {
	if c.cfg.Store == nil {
		return func() {}
	}
	key := LeaseKey(j.rec.ID)
	ctx, cancel := context.WithCancel(ctx)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(c.cfg.LeaseTTL / 3)
		defer t.Stop()
		deadline := time.Now().Add(c.cfg.LeaseTTL) // expiry of the lease as last written
		for {
			select {
			case <-t.C:
				var cur leaseRecord
				if store.GetJSON(c.cfg.Store, key, &cur) &&
					cur.Owner != c.owner && time.Now().Before(cur.Expires) {
					// A peer holds a live lease: ours expired and was
					// taken over.  Stand down.
					c.loseLease(j)
					return
				}
				var next time.Time
				err := c.retry.Do(ctx, func(context.Context) error {
					next = time.Now().Add(c.cfg.LeaseTTL)
					return store.PutJSON(c.cfg.Store, key, leaseRecord{Owner: c.owner, Expires: next})
				})
				switch {
				case err == nil:
					deadline = next
				case ctx.Err() != nil:
					return
				case time.Now().After(deadline):
					// Could not refresh before our own lease expired:
					// assume a peer owns it now (or will momentarily).
					c.loseLease(j)
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return func() {
		cancel()
		<-exited
	}
}

// loseLease marks a job's ownership as lost and cancels its run:
// better to halt and leave the record resumable than to keep
// computing against a peer that now owns the job.
func (c *Coordinator) loseLease(j *job) {
	j.mu.Lock()
	j.leaseLost = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// releaseLease deletes a job's lease if this coordinator holds it.
func (c *Coordinator) releaseLease(id string) {
	if c.cfg.Store == nil {
		return
	}
	key := LeaseKey(id)
	var cur leaseRecord
	if store.GetJSON(c.cfg.Store, key, &cur) && cur.Owner != c.owner {
		return // someone else's lease (we lost ours to a takeover)
	}
	c.cfg.Store.Delete(key)
}
