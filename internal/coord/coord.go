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
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
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
	owned     bool
	cancel    context.CancelFunc
	done      chan struct{} // closed when the run goroutine returns
	result    *JobResult    // in-memory result tier (nil-store coordinators)
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

	mu   sync.Mutex
	jobs map[string]*job

	computed, replayed, stolen, resumed atomic.Uint64
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
// service's 201 vs 200).  A resubmitted spec whose job already
// finished returns the terminal status without recomputing anything.
func (c *Coordinator) Submit(spec JobSpec) (JobStatus, bool, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, false, err
	}
	id, err := JobID(spec)
	if err != nil {
		return JobStatus{}, false, err
	}
	_, _, keys, err := specUnits(spec)
	if err != nil {
		return JobStatus{}, false, err
	}

	c.mu.Lock()
	if j, ok := c.jobs[id]; ok {
		c.mu.Unlock()
		return j.status(), false, nil
	}
	c.mu.Unlock()

	created := true
	rec, found := c.loadRecord(id)
	if found {
		created = false
		if TerminalState(rec.State) {
			j, _ := c.track(rec, false)
			return j.status(), false, nil
		}
	} else {
		now := time.Now()
		rec = JobRecord{
			ID: id, Spec: spec, State: StateQueued,
			Total: len(keys), UnitKeys: keys,
			Created: now, Updated: now,
		}
	}

	won, err := c.acquireLease(id)
	if err != nil {
		return JobStatus{}, false, err
	}
	j, fresh := c.track(rec, won)
	if won && !fresh {
		// A concurrent Submit or resume tracked the job first; it
		// runs the job, not us.
		c.releaseLease(id)
	}
	if !won || !fresh {
		// Another coordinator owns it, and Status reads through the
		// store; or this one already tracks it.
		return j.status(), created, nil
	}
	if found {
		// A persisted, non-terminal record whose lease we won: this
		// submission restarts an interrupted job.
		c.resumed.Add(1)
	}
	c.persist(j)
	c.addToIndex(id)
	c.start(j)
	return j.status(), created, nil
}

// track registers a job locally, resolving the race where two Submits
// (or a Submit and a resume) track the same ID: the first one in
// wins, and fresh reports whether that was this call — only the
// winner may start the job.
func (c *Coordinator) track(rec JobRecord, owned bool) (j *job, fresh bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j, ok := c.jobs[rec.ID]; ok {
		return j, false
	}
	j = &job{rec: rec, owned: owned, done: make(chan struct{})}
	if !owned {
		close(j.done)
	}
	c.jobs[rec.ID] = j
	return j, true
}

// Status returns a job's current state: live for jobs this
// coordinator runs, read through the store for jobs owned elsewhere.
func (c *Coordinator) Status(id string) (JobStatus, error) {
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	if j != nil {
		j.mu.Lock()
		owned := j.owned
		j.mu.Unlock()
		if owned || c.cfg.Store == nil {
			return j.status(), nil
		}
	}
	if rec, ok := c.loadRecord(id); ok {
		return statusFrom(rec, 0), nil
	}
	if j != nil {
		return j.status(), nil
	}
	return JobStatus{}, ErrNotFound
}

// List returns every known job — local ones and those recorded in the
// store's job index — sorted by creation time, then ID.
func (c *Coordinator) List() []JobStatus {
	byID := make(map[string]JobStatus)
	if ids, ok := c.loadIndex(); ok {
		for _, id := range ids {
			if rec, ok := c.loadRecord(id); ok {
				byID[id] = statusFrom(rec, 0)
			}
		}
	}
	c.mu.Lock()
	locals := make([]*job, 0, len(c.jobs))
	for _, j := range c.jobs {
		locals = append(locals, j)
	}
	c.mu.Unlock()
	for _, j := range locals {
		s := j.status()
		j.mu.Lock()
		owned := j.owned
		j.mu.Unlock()
		if _, ok := byID[s.ID]; !ok || owned || c.cfg.Store == nil {
			byID[s.ID] = s
		}
	}
	out := make([]JobStatus, 0, len(byID))
	for _, s := range byID {
		out = append(out, s)
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
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	if j != nil {
		j.mu.Lock()
		if TerminalState(j.rec.State) {
			j.mu.Unlock()
			return j.status(), ErrTerminal
		}
		if j.owned {
			j.userStop = true
			cancel := j.cancel
			j.mu.Unlock()
			if cancel != nil {
				cancel()
			}
			<-j.done
			return j.status(), nil
		}
		j.mu.Unlock()
	}
	rec, ok := c.loadRecord(id)
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
// coordinator assembled it, otherwise re-read from the store's
// content-addressed artefacts (the study under its study key, sweep
// points under their sweep key, session units from the unit cache).
func (c *Coordinator) Result(id string) (*JobResult, error) {
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	var rec JobRecord
	if j != nil {
		j.mu.Lock()
		rec = j.rec
		res := j.result
		j.mu.Unlock()
		if res != nil {
			return res, nil
		}
	}
	if j == nil {
		var ok bool
		if rec, ok = c.loadRecord(id); !ok {
			return nil, ErrNotFound
		}
	}
	if rec.State != StateDone {
		return nil, fmt.Errorf("%w: job %s is %s", ErrNotDone, id, rec.State)
	}
	return c.loadResult(rec)
}

// loadResult reassembles a done job's payload from the store.
func (c *Coordinator) loadResult(rec JobRecord) (*JobResult, error) {
	switch rec.Spec.Kind {
	case "study":
		key, err := core.StudyKey(*rec.Spec.Study)
		if err != nil {
			return nil, err
		}
		if c.cfg.Store != nil {
			if data, ok := c.cfg.Store.Get(key); ok {
				st, err := core.DecodeStudy(data)
				if err != nil {
					return nil, err
				}
				return &JobResult{Study: st}, nil
			}
		}
		return nil, fmt.Errorf("coord: study artefact for job %s not in store", rec.ID)
	case "sweep":
		key, err := experiments.SweepKey(*rec.Spec.Sweep)
		if err != nil {
			return nil, err
		}
		var pts []experiments.SweepPoint
		if !store.GetJSON(c.cfg.Store, key, &pts) {
			return nil, fmt.Errorf("coord: sweep artefact for job %s not in store", rec.ID)
		}
		return &JobResult{Points: pts}, nil
	case "sessions":
		out := make([]core.StudyUnitResult, len(rec.UnitKeys))
		for i, key := range rec.UnitKeys {
			if !store.GetJSON(c.cfg.Store, key, &out[i]) {
				return nil, fmt.Errorf("coord: unit %d of job %s not in store", i, rec.ID)
			}
		}
		return &JobResult{Sessions: out}, nil
	}
	return nil, fmt.Errorf("coord: unknown job kind %q", rec.Spec.Kind)
}

// ResumeInterrupted scans the job index for records left queued or
// running — a previous coordinator died or was closed mid-campaign —
// and restarts every one whose lease it can claim.  Thanks to the
// unit-cache checkpoint, a resumed job recomputes only units without
// store entries.  Returns how many jobs this coordinator resumed.
func (c *Coordinator) ResumeInterrupted() int {
	ids, ok := c.loadIndex()
	if !ok {
		return 0
	}
	n := 0
	for _, id := range ids {
		c.mu.Lock()
		_, known := c.jobs[id]
		c.mu.Unlock()
		if known {
			continue
		}
		rec, ok := c.loadRecord(id)
		if !ok || TerminalState(rec.State) {
			continue
		}
		won, err := c.acquireLease(id)
		if err != nil || !won {
			continue
		}
		j, fresh := c.track(rec, true)
		if !fresh {
			// A Submit tracked the job since the check above; it
			// runs the job, not us.
			c.releaseLease(id)
			continue
		}
		c.start(j)
		c.resumed.Add(1)
		n++
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

// start launches a job's run goroutine.  A Cancel that found the job
// tracked but not yet started only set userStop; the run starts
// canceled and ends in state canceled.
func (c *Coordinator) start(j *job) {
	ctx, cancel := context.WithCancel(c.ctx)
	j.mu.Lock()
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

	j.mu.Lock()
	j.rec.State = StateRunning
	j.mu.Unlock()
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

	j.mu.Lock()
	j.rec = rec
	if err == nil {
		j.result = res
	}
	j.mu.Unlock()
}

// execute runs a job's units and assembles its result.
func (c *Coordinator) execute(ctx context.Context, j *job) (*JobResult, error) {
	j.mu.Lock()
	id, spec := j.rec.ID, j.rec.Spec
	j.mu.Unlock()
	study, sweep, keys, err := specUnits(spec)
	if err != nil {
		return nil, err
	}
	// The job ID is the trace ID of every unit POST.
	ctx = obs.WithRequestID(ctx, id)
	if study != nil {
		results, err := runUnits(ctx, c, j, study, keys, remote.NewStudyClient(c.fleetConfig()))
		if err != nil {
			return nil, err
		}
		if spec.Kind == "sessions" {
			return &JobResult{Sessions: results}, nil
		}
		st, err := assembleStudy(ctx, *spec.Study, study, results)
		if err != nil {
			return nil, err
		}
		data, err := core.EncodeStudy(st)
		if err != nil {
			return nil, err
		}
		key, err := core.StudyKey(*spec.Study)
		if err != nil {
			return nil, err
		}
		if c.cfg.Store != nil {
			c.cfg.Store.Put(key, data)
		}
		return &JobResult{Study: st}, nil
	}
	results, err := runUnits(ctx, c, j, sweep, keys, remote.NewSweepClient(c.fleetConfig()))
	if err != nil {
		return nil, err
	}
	key, err := experiments.SweepKey(*spec.Sweep)
	if err != nil {
		return nil, err
	}
	store.PutJSON(c.cfg.Store, key, results)
	return &JobResult{Points: results}, nil
}

// assembleStudy reduces unit results into the full Study through
// core.RunStudyRunner with a pure-replay runner, so the reduction —
// and therefore the bytes — are exactly those of local execution.
func assembleStudy(ctx context.Context, cfg core.StudyConfig, units []core.StudyUnit, results []core.StudyUnitResult) (*core.Study, error) {
	byUnit := make(map[string]core.StudyUnitResult, len(units))
	for i, u := range units {
		b, err := json.Marshal(u)
		if err != nil {
			return nil, err
		}
		byUnit[string(b)] = results[i]
	}
	replay := engine.Local[core.StudyUnit, core.StudyUnitResult]{
		Fn: func(u core.StudyUnit) (core.StudyUnitResult, error) {
			b, err := json.Marshal(u)
			if err != nil {
				return core.StudyUnitResult{}, err
			}
			res, ok := byUnit[string(b)]
			if !ok {
				return core.StudyUnitResult{}, fmt.Errorf("coord: no result for unit %s", b)
			}
			return res, nil
		},
	}
	return core.RunStudyRunner(ctx, cfg, 1, replay, nil)
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
	_ = store.PutJSON(r.c.cfg.Store, r.keys[i], res)
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
	if c.cfg.Store == nil {
		return nil
	}
	key, err := recordKey(rec.ID)
	if err != nil {
		return err
	}
	return store.PutJSON(c.cfg.Store, key, rec)
}

// loadRecord reads a job record; a corrupt or truncated record reads
// as a miss (the store removes it), so a damaged job simply restarts
// from its unit cache.
func (c *Coordinator) loadRecord(id string) (JobRecord, bool) {
	if c.cfg.Store == nil {
		return JobRecord{}, false
	}
	key, err := recordKey(id)
	if err != nil {
		return JobRecord{}, false
	}
	var rec JobRecord
	if !store.GetJSON(c.cfg.Store, key, &rec) {
		return JobRecord{}, false
	}
	if rec.ID != id {
		return JobRecord{}, false
	}
	return rec, true
}

// loadIndex reads the job-ID index.
func (c *Coordinator) loadIndex() ([]string, bool) {
	if c.cfg.Store == nil {
		return nil, false
	}
	key, err := indexKey()
	if err != nil {
		return nil, false
	}
	var ids []string
	if !store.GetJSON(c.cfg.Store, key, &ids) {
		return nil, false
	}
	return ids, true
}

// addToIndex merges id into the job index.  Two coordinators updating
// concurrently can lose one ID from the listing (last writer wins);
// records and leases are untouched, so this only narrows GET /v1/jobs
// until the next submit — an accepted cost of keeping the index a
// plain entry.
func (c *Coordinator) addToIndex(id string) {
	if c.cfg.Store == nil {
		return
	}
	key, err := indexKey()
	if err != nil {
		return
	}
	var ids []string
	store.GetJSON(c.cfg.Store, key, &ids)
	for _, have := range ids {
		if have == id {
			return
		}
	}
	ids = append(ids, id)
	sort.Strings(ids)
	store.PutJSON(c.cfg.Store, key, ids)
}

// --- lease helpers ---

// acquireLease claims job ownership, taking over an expired lease.
func (c *Coordinator) acquireLease(id string) (bool, error) {
	if c.cfg.Store == nil {
		return true, nil
	}
	key, err := LeaseKey(id)
	if err != nil {
		return false, err
	}
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
	key, err := LeaseKey(j.rec.ID)
	if err != nil {
		return func() {}
	}
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
	key, err := LeaseKey(id)
	if err != nil {
		return
	}
	var cur leaseRecord
	if store.GetJSON(c.cfg.Store, key, &cur) && cur.Owner != c.owner {
		return // someone else's lease (we lost ours to a takeover)
	}
	c.cfg.Store.Delete(key)
}
