package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/remote"
	"repro/internal/service"
	"repro/internal/store"
)

const (
	// fleetUnitCount is how many session units fleet-units runs; each
	// is one sample of one snapshot and a 2,000-cycle gap.
	fleetUnitCount     = 4000
	fleetUnitCountTiny = 40

	// slowDelay is the fixed delay the slow backend adds to every
	// request, so the two-backend fleet is uneven.
	slowDelay = 2 * time.Millisecond

	// jobPoll is how often a job's status is polled.
	jobPoll = 2 * time.Millisecond
)

// jobRecordNamespace is the store namespace coord keeps job records
// under; the resume phase deletes the cold job's record so its
// resubmission is a fresh job whose units are all in the store.
const jobRecordNamespace = "job/v1"

// fleetWorkload is fleet-units: one seeded list of small session units
// run three ways over two in-process fx8d backends, one of them slowed
// by a fixed per-request delay — (a) a cold coord sessions job into a
// fresh store, (b) the same job resubmitted after its record is
// deleted, a pure store replay, and (c) remote.NewStudyClient through
// engine.RunAll, batched and storeless.  Every phase's results must be
// byte-identical to local RunStudyUnit.
type fleetWorkload struct {
	e        *env
	units    []core.StudyUnit
	want     []string      // sha256 of each unit's local result
	floor    time.Duration // local compute time of all units
	cycles   float64       // simulated cycles of computing every unit once
	backends []*backend
}

// backend is one in-process fx8d node.
type backend struct {
	label string
	svc   *service.Server
	meter *serverMeter
	srv   *server
}

func startBackend(label string, delay time.Duration, cfg service.Config) (*backend, error) {
	svc := service.New(cfg)
	m := &serverMeter{inner: svc, delay: delay, label: label}
	srv, err := startServer(m)
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &backend{label: label, svc: svc, meter: m, srv: srv}, nil
}

func (b *backend) close() {
	b.srv.close()
	b.svc.Close()
}

// fleetUnits draws n session units with distinct seeds from seed.
func fleetUnits(seed uint64, n int) []core.StudyUnit {
	rng := rand.New(rand.NewPCG(seed, 0x666c656574))
	seen := make(map[uint64]bool, n)
	units := make([]core.StudyUnit, 0, n)
	for len(units) < n {
		s := rng.Uint64()
		if seen[s] {
			continue
		}
		seen[s] = true
		spec := core.SessionSpec{Samples: 1, Sampling: monitor.SampleSpec{Snapshots: 1, GapCycles: 2_000}, Seed: s}
		units = append(units, core.StudyUnit{ID: len(units) + 1, Random: &spec})
	}
	return units
}

func (w *fleetWorkload) setup(e *env, c *checks) error {
	w.e = e
	n := fleetUnitCount
	if e.tiny {
		n = fleetUnitCountTiny
	}
	w.units = fleetUnits(e.seed, n)
	t := time.Now()
	res, err := engine.RunAll(context.Background(), workers, w.units, core.LocalStudyRunner(), nil)
	w.floor = time.Since(t)
	if err != nil {
		return fmt.Errorf("local baseline: %w", err)
	}
	w.want = make([]string, len(res))
	w.cycles = 0
	for i, r := range res {
		if w.want[i], err = jsonSHA(r); err != nil {
			return err
		}
		w.cycles += unitCycles(r)
	}
	for _, b := range []struct {
		label string
		delay time.Duration
	}{{"fast", 0}, {"slow", slowDelay}} {
		be, err := startBackend(b.label, b.delay, service.Config{Workers: 1})
		if err != nil {
			return err
		}
		w.backends = append(w.backends, be)
	}
	return nil
}

func (w *fleetWorkload) teardown() {
	for _, b := range w.backends {
		b.close()
	}
	w.backends = nil
}

// sameResults checks unit results against the local baseline.
func sameResults(got []core.StudyUnitResult, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results for %d units", len(got), len(want))
	}
	bad := 0
	first := -1
	for i, r := range got {
		if s, err := jsonSHA(r); err != nil || s != want[i] {
			if first < 0 {
				first = i
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d results differ from local RunStudyUnit, first at unit %d", bad, len(want), first+1)
	}
	return nil
}

// jobPhase is what one coord phase measured.
type jobPhase struct {
	wall    time.Duration
	cpu     time.Duration
	stats   coord.Stats
	retries uint64
	results []core.StudyUnitResult
}

func (w *fleetWorkload) pass(p *pass) error {
	// Both job phases share one store; every pass starts an empty one.
	base := newMemFS()
	dir := w.e.freshDir("fleet-store")
	for _, b := range w.backends {
		b.meter.trace(p.probe)
	}
	defer func() {
		for _, b := range w.backends {
			b.meter.trace(nil)
		}
	}()

	cold, coldErr := w.job(p, base, dir, "job_cold", false)
	resume, resumeErr := w.job(p, base, dir, "job_resume", true)
	shard, shardStats, shardErr := w.shard(p)

	n := float64(len(w.units))
	p.wall = cold.wall + resume.wall + shard.wall
	p.cpu = cold.cpu + resume.cpu + shard.cpu
	p.cycleTime = cold.wall + shard.wall
	p.cycles = 2 * w.cycles
	p.phases["job_cold_units_per_s"] = n / cold.wall.Seconds()
	p.phases["job_resume_units_per_s"] = n / resume.wall.Seconds()
	p.phases["shard_units_per_s"] = n / shard.wall.Seconds()
	p.phases["job_cold.overhead_x"] = ratio(cold.wall.Seconds(), w.floor.Seconds())
	p.phases["job_resume.overhead_x"] = ratio(resume.wall.Seconds(), w.floor.Seconds())
	p.phases["shard.overhead_x"] = ratio(shard.wall.Seconds(), w.floor.Seconds())

	units := len(w.units)
	if coldErr == nil {
		coldErr = sameResults(cold.results, w.want)
	}
	if coldErr == nil {
		coldErr = checkJobCounts(cold.stats, uint64(units), 0)
	}
	p.gate("job_cold", units, coldErr)
	if resumeErr == nil {
		resumeErr = sameResults(resume.results, w.want)
	}
	if resumeErr == nil {
		resumeErr = checkJobCounts(resume.stats, 0, uint64(units))
	}
	p.gate("job_resume", units, resumeErr)
	p.gate("shard", units, shardErr)

	if p.probe != nil {
		w.layers(p, cold, resume, shardStats)
	}
	return nil
}

// checkJobCounts checks a job's unit outcomes.
func checkJobCounts(s coord.Stats, computed, replayed uint64) error {
	if s.UnitsComputed != computed || s.UnitsReplayed != replayed {
		return fmt.Errorf("job computed %d and replayed %d units, want %d and %d",
			s.UnitsComputed, s.UnitsReplayed, computed, replayed)
	}
	return nil
}

// job runs the units as one coord sessions job on a coordinator over
// the store in dir of base.  With resubmit, the job's record is
// deleted first, so the submission is a new job whose units the store
// already holds.
func (w *fleetWorkload) job(p *pass, base store.FS, dir, phase string, resubmit bool) (jobPhase, error) {
	var out jobPhase
	var fsys *timedFS
	if p.probe != nil {
		fsys = newTimedFS(p.probe, base)
		base = fsys
	}
	st, err := store.Open(dir, store.WithFS(base))
	if err != nil {
		return out, err
	}
	spec := coord.JobSpec{Kind: "sessions", Units: w.units, Workers: workers}
	id, err := coord.JobID(spec)
	if err != nil {
		return out, err
	}
	if resubmit {
		key, err := store.Key(jobRecordNamespace, id)
		if err != nil {
			return out, err
		}
		if err := st.Delete(key); err != nil {
			return out, err
		}
	}

	phaseID, end := p.probe.begin("coord.job", p.root)
	if fsys != nil {
		fsys.parent.Store(phaseID)
	}
	reg := coord.NewRegistry()
	for _, b := range w.backends {
		reg.Register(b.srv.addr, coord.MaxTTL)
	}
	hc := newClient(p.probe, phase, fixedParent(phaseID))
	defer hc.CloseIdleConnections()
	c := coord.New(coord.Config{
		Store: st, Registry: reg, Workers: workers, PerBackend: 1, HTTPClient: hc,
	})
	defer c.Close()
	t := now()
	res, err := runJob(c, spec, id)
	out.wall, out.cpu = t.since()
	end()
	out.stats = c.Stats()
	out.retries = c.RetryStats().Retries
	if err != nil {
		return out, err
	}
	out.results = res.Sessions
	return out, nil
}

// runJob submits spec, waits for the job to end and returns its
// result.
func runJob(c *coord.Coordinator, spec coord.JobSpec, id string) (*coord.JobResult, error) {
	if _, _, err := c.Submit(spec); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	for {
		s, err := c.Status(id)
		if err != nil {
			return nil, fmt.Errorf("status: %w", err)
		}
		if coord.TerminalState(s.State) {
			if s.State != coord.StateDone {
				return nil, fmt.Errorf("job ended %s: %s", s.State, s.Error)
			}
			return c.Result(id)
		}
		time.Sleep(jobPoll)
	}
}

// shard runs the units through the sharding remote client, batched,
// with two workers.
func (w *fleetWorkload) shard(p *pass) (jobPhase, remote.Stats, error) {
	phaseID, end := p.probe.begin("remote.run_all", p.root)
	addrs := make([]string, len(w.backends))
	for i, b := range w.backends {
		addrs[i] = b.srv.addr
	}
	hc := newClient(p.probe, "shard", fixedParent(phaseID))
	defer hc.CloseIdleConnections()
	client := remote.NewStudyClient(remote.Config{Backends: addrs, HTTPClient: hc})
	t := now()
	res, err := engine.RunAll(context.Background(), workers, w.units, client, nil)
	var out jobPhase
	out.wall, out.cpu = t.since()
	end()
	stats := client.Stats()
	if err == nil {
		err = sameResults(res, w.want)
	}
	if err == nil && stats.Fallbacks > 0 {
		err = fmt.Errorf("%d units fell back to local compute", stats.Fallbacks)
	}
	return out, stats, err
}

// layers computes the traced pass's per-layer metrics.
func (w *fleetWorkload) layers(p *pass, cold, resume jobPhase, shard remote.Stats) {
	pr, l := p.probe, p.layers
	serviceLayers(pr, l)
	storeLayers(pr, l)
	l["core.unit_ms"] = 1000 * w.floor.Seconds() / float64(len(w.units))
	l["coord.computed"] = float64(cold.stats.UnitsComputed + resume.stats.UnitsComputed)
	l["coord.replayed"] = float64(cold.stats.UnitsReplayed + resume.stats.UnitsReplayed)
	l["coord.stolen"] = float64(cold.stats.UnitsStolen + resume.stats.UnitsStolen)
	l["retry.retries"] = float64(cold.retries + resume.retries + shard.Retry.Retries)
	fastUnits := pr.count("service.requests.fast.unit")
	l["coord.fast_share"] = ratio(fastUnits, fastUnits+pr.count("service.requests.slow.unit"))

	l["remote.batches"] = float64(shard.Batches)
	l["remote.hedges"] = float64(shard.Hedges)
	l["remote.reroutes"] = float64(shard.Reroutes)
	var fast, all float64
	for _, b := range shard.Backends {
		all += float64(b.Units)
		if b.Addr == w.backends[0].srv.addr {
			fast += float64(b.Units)
		}
	}
	l["remote.fast_share"] = ratio(fast, all)

	wall := p.wall.Seconds()
	for _, b := range w.backends {
		l["service.backend_busy_frac."+b.label] = ratio(b.meter.busyTime().Seconds(), wall)
	}
	httpLayers(pr, l, "job_cold", "job_resume", "shard")
}

// serviceLayers reports the service layer's latency quantiles and
// response counts from serverMeter spans.
func serviceLayers(pr *probe, l map[string]float64) {
	for _, class := range []string{"unit", "batch"} {
		d := pr.durations("service." + class)
		l["service."+class+"_ms.p50"] = 1000 * quantile(d, 0.50)
		l["service."+class+"_ms.p99"] = 1000 * quantile(d, 0.99)
	}
	l["service.shed"] = pr.count("service.shed")
}

// httpLayers reports the client-side HTTP counters of phases.
func httpLayers(pr *probe, l map[string]float64, phases ...string) {
	for _, ph := range phases {
		for _, c := range []string{"requests", "conns", "req_bytes", "resp_bytes"} {
			l["http."+c+"."+ph] = pr.count("http." + c + "." + ph)
		}
	}
}

// fixedParent parents a request's span on the span its context
// carries, or else on id.
func fixedParent(id int64) func(context.Context) int64 {
	return func(ctx context.Context) int64 { return spanFrom(ctx, id) }
}
