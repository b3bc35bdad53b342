package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/store"
)

// workers is the worker count every workload computes with.
const workers = 2

// campaignWorkload is campaign-paper: the study's own reproduction as
// a user runs it with `figures -scale paper -cache DIR`.  A pass
// computes the paper campaign cold into an empty store, reloads it
// through a second cache and renders every table and figure, and runs
// the three default sweeps cold.  No HTTP, remote or coord code runs.
//
// The campaign and the sweeps are the paper's own, at its base seed
// 1987, whatever the workload seed: another base seed is another
// campaign, whose simulated work differs (the default sweeps took
// 0.9 s at one seed and 2.3 s at another), so seeds would spread the
// timings by more than any bound could tolerate.  The workload seed
// only orders the sweeps.  Every pass is therefore checked against the
// pinned fingerprints.
type campaignWorkload struct {
	e      *env
	study  core.StudyConfig
	sweeps []experiments.SweepConfig
}

// sweepSamples is the samples per point of the default sweeps.
const sweepSamples = 12

func (w *campaignWorkload) setup(e *env, c *checks) error {
	w.e = e
	w.study = core.PaperScale()
	values := experiments.DefaultSweepValues
	samples := sweepSamples
	if e.tiny {
		w.study = tinyStudy(defaultSeed)
		values = func(kind string) []int { return experiments.DefaultSweepValues(kind)[:2] }
		samples = 1
	}
	w.sweeps = w.sweeps[:0]
	kinds := experiments.SweepKinds()
	for i := range kinds {
		kind := kinds[(i+int(e.seed%uint64(len(kinds))))%len(kinds)]
		w.sweeps = append(w.sweeps, experiments.SweepConfig{Kind: kind, Values: values(kind), Seed: defaultSeed, Samples: samples})
	}
	return warmStudy(e, c)
}

// warmStudy computes the canonical quick study on a fresh store, which
// fills the session arena pool before anything is timed, and checks
// its fingerprint.
func warmStudy(e *env, c *checks) error {
	st, err := store.Open(e.freshDir("warm-store"))
	if err != nil {
		return err
	}
	cache := core.NewStudyCache()
	cache.SetStore(st)
	cfg := core.QuickScale()
	study := cache.Get(cfg, workers)
	enc, err := core.EncodeStudy(study)
	if err != nil {
		return err
	}
	c.gate("setup.quick_study", cfg.TotalSessions(), e.checkPin("quick_study", sha(enc)))
	return nil
}

// tinyStudy is the campaign of the benchmark's own tests: one session
// of each kind, a few samples each.
func tinyStudy(seed uint64) core.StudyConfig {
	return core.StudyConfig{
		RandomSessions: 1, HighConcSessions: 1, TransitionSessions: 1,
		SamplesPerSession: 2,
		Sampling:          monitor.SampleSpec{Snapshots: 2, GapCycles: 2_000},
		TriggeredSamples:  1, TriggeredBuffers: 2, TriggerBudget: 50_000,
		BaseSeed: seed,
	}
}

func (w *campaignWorkload) teardown() {}

func (w *campaignWorkload) pass(p *pass) error {
	var fsys *timedFS
	var opts []store.Option
	if p.probe != nil {
		fsys = newTimedFS(p.probe, store.OS())
		opts = append(opts, store.WithFS(fsys))
	}
	st, err := store.Open(w.e.freshDir("campaign-store"), opts...)
	if err != nil {
		return err
	}

	// Cold campaign: compute, encode, store write.
	phase, endPhase := p.probe.begin("core.campaign", p.root)
	cache := core.NewStudyCache()
	cache.SetStore(st)
	var runner *timedRunner[core.StudyUnit, core.StudyUnitResult]
	if p.probe != nil {
		fsys.parent.Store(phase)
		runner = &timedRunner[core.StudyUnit, core.StudyUnitResult]{
			inner: core.LocalStudyRunner(), probe: p.probe, parent: phase,
			name: unitSpanName, cycles: unitCycles,
		}
		cache.SetRunner(runner)
	}
	t0 := now()
	study := cache.Get(w.study, workers)
	campaign, campaignCPU := t0.since()
	endPhase()
	putBytes := p.probe.count("store.put_bytes")

	// Reload from disk through a second cache and render every
	// artefact.
	phase, endPhase = p.probe.begin("core.reload", p.root)
	if fsys != nil {
		fsys.parent.Store(phase)
	}
	t1 := now()
	reloadCache := core.NewStudyCache()
	reloadCache.SetStore(st)
	reloaded := reloadCache.Get(w.study, workers)
	renders := renderAll(p.probe, phase, reloaded)
	reload, reloadCPU := t1.since()
	endPhase()

	// The three default sweeps, cold.
	phase, endPhase = p.probe.begin("experiments.sweeps", p.root)
	var sweepRunner experiments.SweepRunner
	if p.probe != nil {
		sweepRunner = &timedRunner[experiments.SweepUnit, experiments.SweepPoint]{
			inner: experiments.LocalSweepRunner(), probe: p.probe, parent: phase,
			name: func(u experiments.SweepUnit) string { return "experiments.sweep_point." + u.Kind },
		}
	}
	t2 := now()
	points := make([][]experiments.SweepPoint, len(w.sweeps))
	sweepErrs := make([]error, len(w.sweeps))
	for i, cfg := range w.sweeps {
		points[i], sweepErrs[i] = experiments.RunSweepRunner(cfg, workers, sweepRunner)
	}
	sweep, sweepCPU := t2.since()
	endPhase()

	p.wall = campaign + reload + sweep
	p.cpu = campaignCPU + reloadCPU + sweepCPU
	p.cycleTime = campaign + sweep
	p.cycles = studyCycles(study) + w.sweepCycles()
	p.phases["campaign_s"] = campaign.Seconds()
	p.phases["reload_s"] = reload.Seconds()
	p.phases["sweep_s"] = sweep.Seconds()

	w.checkPass(p, study, reloaded, reloadCache.Stats(), renders, points, sweepErrs)
	if p.probe != nil {
		w.layers(p, study, runner, putBytes)
	}
	return nil
}

// checkPass checks every output of a pass: the study against its pin
// (or, on other seeds, the other passes), the reloaded study against
// the computed one, the rendered artefacts and the sweep points.
func (w *campaignWorkload) checkPass(p *pass, study, reloaded *core.Study, reloadStats core.CacheStats,
	renders string, points [][]experiments.SweepPoint, sweepErrs []error) {
	e := w.e
	enc, err := core.EncodeStudy(study)
	studySHA := ""
	if err == nil {
		studySHA = sha(enc)
		p.output("study", studySHA)
		if !e.tiny {
			err = e.checkPin("paper_study", studySHA)
		}
	}
	p.gate("campaign", w.study.TotalSessions(), err)

	reenc, err := core.EncodeStudy(reloaded)
	if err == nil && sha(reenc) != studySHA {
		err = fmt.Errorf("reloaded study re-encodes to %.16s, computed study is %.16s", sha(reenc), studySHA)
	}
	if err == nil && reloadStats.DiskHits != 1 {
		err = fmt.Errorf("reload was not a disk hit: %+v", reloadStats)
	}
	p.gate("reload", 1, err)

	renderSHA := sha([]byte(renders))
	p.output("renders", renderSHA)
	err = nil
	if !e.tiny {
		err = e.checkPin("paper_renders", renderSHA)
	}
	p.gate("render", len(experiments.Tables())+len(experiments.Figures()), err)

	for i, cfg := range w.sweeps {
		err := sweepErrs[i]
		if err == nil {
			var fp string
			if fp, err = jsonSHA(points[i]); err == nil {
				p.output("sweep."+cfg.Kind, fp)
				if !e.tiny {
					err = e.checkPin("sweep."+cfg.Kind, fp)
				}
			}
		}
		p.gate("sweep."+cfg.Kind, len(cfg.Values), err)
	}
}

// layers computes the traced pass's per-layer metrics.
func (w *campaignWorkload) layers(p *pass, study *core.Study,
	runner *timedRunner[core.StudyUnit, core.StudyUnitResult], putBytes float64) {
	pr, l := p.probe, p.layers
	units := runner.timings()
	l["engine.busy_frac"], l["engine.tail_s"] = poolStats(units, workers)
	var randomCycles, trigCycles, unitTime []float64
	for _, u := range units {
		unitTime = append(unitTime, u.end.Sub(u.start).Seconds())
		if u.name == "core.random" {
			randomCycles = append(randomCycles, u.cycles)
		} else {
			trigCycles = append(trigCycles, u.cycles)
		}
	}
	random := sum(pr.durations("core.random"))
	all8, transition := sum(pr.durations("core.all8")), sum(pr.durations("core.transition"))
	l["core.random_s"], l["core.all8_s"], l["core.transition_s"] = random, all8, transition
	l["core.random_cycles_per_s"] = ratio(sum(randomCycles), random)
	l["core.triggered_cycles_per_s"] = ratio(sum(trigCycles), all8+transition)
	l["core.unit_ms"] = 1000 * mean(unitTime)

	// Fit, encode and decode once more, each on its own, to time them.
	_, end := pr.begin("core.fit", p.root)
	models := core.FitModels(study.AllSamples)
	end()
	_, end = pr.begin("core.encode", p.root)
	enc, encErr := core.EncodeStudy(study)
	end()
	_, end = pr.begin("core.decode", p.root)
	_, decErr := core.DecodeStudy(enc)
	end()
	fitErr := error(nil)
	if a, b := mustJSONSHA(models), mustJSONSHA(study.Models); a != b {
		fitErr = fmt.Errorf("refit models %.16s differ from the study's %.16s", a, b)
	}
	p.gate("trace.fit", 1, fitErr)
	p.gate("trace.codec", 1, firstErr(encErr, decErr))
	l["core.fit_ms"] = 1000 * mean(pr.durations("core.fit"))
	l["core.encode_ms"] = 1000 * mean(pr.durations("core.encode"))
	l["core.decode_ms"] = 1000 * mean(pr.durations("core.decode"))

	storeLayers(pr, l)
	l["store.study_bytes"] = putBytes

	l["experiments.render_ms"] = 1000 * sum(pr.durations("experiments.render"))
	for _, kind := range experiments.SweepKinds() {
		l["experiments.sweep_point_ms."+kind] = 1000 * mean(pr.durations("experiments.sweep_point."+kind))
	}

	id, end := pr.begin("bench.replay", p.root)
	err := replayStudy(pr, id, w.study, study, workers)
	end()
	p.gate("trace.replay", w.study.TotalSessions(), err)
	replayLayers(pr, l)
}

// storeLayers reports the store layer's metrics from a timedFS's
// spans and counters.
func storeLayers(pr *probe, l map[string]float64) {
	l["store.put_ms"] = 1000 * mean(pr.durations("store.put"))
	l["store.get_ms"] = 1000 * mean(pr.durations("store.get"))
	l["store.puts"] = pr.count("store.puts")
	l["store.gets"] = pr.count("store.gets")
}

// renderAll renders every table and figure of st and returns them
// concatenated, each under its name.
func renderAll(pr *probe, parent int64, st *core.Study) string {
	var b strings.Builder
	for _, group := range [][]experiments.StudyRenderer{experiments.Tables(), experiments.Figures()} {
		for _, r := range group {
			_, end := pr.begin("experiments.render", parent)
			text := r.Render(st)
			end()
			fmt.Fprintf(&b, "== %s\n%s\n", r.Name, text)
		}
	}
	return b.String()
}

// unitSpanName names a study unit's span by its session kind.
func unitSpanName(u core.StudyUnit) string {
	if u.Random != nil {
		return "core.random"
	}
	if u.Triggered != nil && u.Triggered.Mode == monitor.TriggerTransition {
		return "core.transition"
	}
	return "core.all8"
}

// unitCycles is the simulated cycles of a unit's session: its last
// sample's end cycle.
func unitCycles(r core.StudyUnitResult) float64 {
	var samples []monitor.Sample
	switch {
	case r.Random != nil:
		samples = r.Random.Samples
	case r.Triggered != nil:
		samples = r.Triggered.Samples
	}
	if len(samples) == 0 {
		return 0
	}
	return float64(samples[len(samples)-1].EndCycle)
}

// studyCycles sums unitCycles over a study's sessions.
func studyCycles(st *core.Study) float64 {
	total := 0.0
	for _, s := range st.Random {
		total += unitCycles(core.StudyUnitResult{Random: s})
	}
	for _, s := range append(append([]*core.TriggeredSession(nil), st.HighConc...), st.Transition...) {
		total += unitCycles(core.StudyUnitResult{Triggered: s})
	}
	return total
}

// sweepPointCycles is the simulated cycles of one sweep point's
// session (the sampling experiments' sweepSession uses): each of its
// samples takes 5 immediate snapshots, each filling the DAS buffer —
// a first record, then one every Timebase cycles — followed by a
// 20,000-cycle gap.  TestSweepPointCycles checks it against a session.
func sweepPointCycles(samples int) float64 {
	return float64(samples) * 5 * float64(20_000+(monitor.BufferDepth-1)*monitor.Timebase+1)
}

func (w *campaignWorkload) sweepCycles() float64 {
	total := 0.0
	for _, cfg := range w.sweeps {
		total += float64(len(cfg.Values)) * sweepPointCycles(cfg.Samples)
	}
	return total
}

func mustJSONSHA(v any) string {
	s, err := jsonSHA(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return s
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
