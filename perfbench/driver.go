package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// defaultSeed is the seed the pinned fingerprints were measured at:
// the paper campaign's own base seed.
const defaultSeed = 1987

const (
	// setupRepeats is how many times a run builds its environment;
	// setup_s is the median, and the last environment is kept.
	setupRepeats = 3

	// minPasses is the least number of measured passes a run makes,
	// however short -seconds is: two passes are what the determinism
	// check compares.
	minPasses = 2
)

// scenario is one benchmark workload.  setup builds the environment
// passes run in (servers, stores, baselines) and may be called again
// after teardown; pass runs one measured pass over the workload's
// fixed operation list.  Both report wrong outputs through their
// checks and return an error only when the run cannot continue.
type scenario interface {
	setup(e *env, c *checks) error
	teardown()
	pass(p *pass) error
}

// workloadTable lists the workloads with the GOMAXPROCS each runs at.
// campaign-paper computes on two workers, one per CPU.  fleet-units
// runs its coordinator, both backends and its clients on one P: its
// cold job hands every unit between goroutines several times, and
// with two Ps each hand-off can wait for the other vCPU to be
// scheduled.  In alternating 20-second runs on a shared 2-vCPU VM, a
// run's median pass took 4.8–9.2 s at two Ps and 5.0–5.8 s at one.
var workloadTable = []struct {
	name  string
	procs int
	make  func() scenario
}{
	{"campaign-paper", 2, func() scenario { return &campaignWorkload{} }},
	{"fleet-units", 1, func() scenario { return &fleetWorkload{} }},
}

func workloadNames() []string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.name
	}
	return names
}

// newWorkload returns the named workload and its GOMAXPROCS.
func newWorkload(name string) (scenario, int, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w.make(), w.procs, true
		}
	}
	return nil, 0, false
}

// env is what every workload gets from the driver: the seed, the input
// size, a scratch directory inside the checkout and the pinned
// fingerprints outputs are checked against.
type env struct {
	seed    uint64
	tiny    bool
	scratch string
	pins    map[string]string
	dirs    atomic.Int64
}

// checkPin compares the fingerprint got of output name with its pin.
func (e *env) checkPin(name, got string) error {
	want, ok := e.pins[name]
	if !ok {
		return fmt.Errorf("no pinned fingerprint for %s", name)
	}
	if got != want {
		return fmt.Errorf("%s fingerprint %s, pinned %s", name, got, want)
	}
	return nil
}

// freshDir names a directory under the scratch directory that no
// earlier call returned.
func (e *env) freshDir(prefix string) string {
	return filepath.Join(e.scratch, fmt.Sprintf("%s-%d", prefix, e.dirs.Add(1)))
}

// opCount is the operation accounting of one phase.
type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// checks collects correctness failures and operation counts.
type checks struct {
	ops  map[string]*opCount
	errs []string
}

func newChecks() *checks { return &checks{ops: make(map[string]*opCount)} }

// count books attempted operations of a phase, failed of which were
// wrong or did not complete.
func (c *checks) count(phase string, attempted, failed int) {
	o := c.ops[phase]
	if o == nil {
		o = &opCount{}
		c.ops[phase] = o
	}
	o.Attempted += attempted
	o.Failed += failed
}

// gate books n operations of phase whose output one check covered:
// all n failed unless err is nil.
func (c *checks) gate(phase string, n int, err error) {
	if err != nil {
		c.errs = append(c.errs, fmt.Sprintf("%s: %v", phase, err))
		c.count(phase, n, n)
		return
	}
	c.count(phase, n, 0)
}

// pass is one measured pass: what the workload measured, the outputs
// it fingerprinted and, when traced, the probe its wrappers record
// into.
type pass struct {
	*checks
	index int
	probe *probe // nil when the pass is untraced
	root  int64  // the pass's root span, the parent of phase spans

	wall      time.Duration      // the pass's measured time, pass_s
	cpu       time.Duration      // process CPU time over the measured phases
	rss       float64            // peak resident set during the pass, MiB
	cycles    float64            // simulated cycles in the measured phases
	cycleTime time.Duration      // host time of the phases that simulated them
	phases    map[string]float64 // per-phase figures, reported by trace runs
	layers    map[string]float64 // per-layer figures of a traced pass
	outputs   map[string]string  // output fingerprints, compared across passes
}

func newPass(i int) *pass {
	return &pass{
		checks:  newChecks(),
		index:   i,
		phases:  make(map[string]float64),
		layers:  make(map[string]float64),
		outputs: make(map[string]string),
	}
}

// output records the fingerprint of one named output of the pass.
func (p *pass) output(name, fingerprint string) { p.outputs[name] = fingerprint }

// result is everything one run measured; the detail record written
// under .bench_build/results.
type result struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Trace     bool                `json:"trace"`
	RunID     string              `json:"run_id"`
	Machine   machine             `json:"machine"`
	Correct   bool                `json:"correct"`
	Errors    []string            `json:"errors,omitempty"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Ops       map[string]*opCount `json:"ops"`
	SetupS    []float64           `json:"setup_s"`
	WarmUpS   float64             `json:"warm_up_s"`
	Passes    []passRecord        `json:"passes"`
	Metrics   map[string]metric   `json:"metrics"`
	SpansFile string              `json:"spans_file,omitempty"`
}

type passRecord struct {
	Traced  bool               `json:"traced"`
	PassS   float64            `json:"pass_s"`
	CPUS    float64            `json:"cpu_s"`
	RSSMB   float64            `json:"peak_rss_mb"`
	Cycles  float64            `json:"cycles"`
	Phases  map[string]float64 `json:"phases"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	Outputs map[string]string  `json:"outputs"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// drive sets the workload up setupRepeats times, runs passes until
// cfg.seconds have passed (and at least minPasses ran), checks that
// every pass produced the same outputs, and computes the metrics.
func drive(cfg runConfig, w scenario, e *env, runID string, log io.Writer) (*result, *tracer, error) {
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, RunID: runID}
	all := newChecks()
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.teardown()
		}
		c := newChecks()
		t := time.Now()
		err := w.setup(e, c)
		res.SetupS = append(res.SetupS, time.Since(t).Seconds())
		if err != nil {
			w.teardown()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		merge(all, c)
	}
	defer w.teardown()
	fmt.Fprintf(log, "perfbench: %s seed=%d set-up %.3fs (median of %d)\n",
		cfg.workload, cfg.seed, median(res.SetupS), setupRepeats)

	var tr *tracer
	if cfg.trace {
		tr = newTracer(runID)
	}
	// The warm-up pass brings the process to its working state — the
	// heap at its working size, pools and connections filled — before
	// anything is measured.  Its outputs are checked like any pass's.
	warm := newPass(0)
	t := time.Now()
	if err := w.pass(warm); err != nil {
		return nil, nil, fmt.Errorf("warm-up pass: %w", err)
	}
	res.WarmUpS = time.Since(t).Seconds()
	merge(all, warm.checks)

	var passes []*pass
	start := time.Now()
	for i := 0; ; i++ {
		p := newPass(i + 1)
		var endRoot func()
		if cfg.trace && i%2 == 1 {
			p.probe = tr.newProbe()
			p.root, endRoot = p.probe.begin("bench.pass", 0)
		}
		// Every pass starts from a collected heap, so none pays for
		// the garbage of the one before.
		runtime.GC()
		rss := startRSS()
		err := w.pass(p)
		p.rss = rss.finish()
		if endRoot != nil {
			endRoot()
			p.probe.finish(p)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("pass %d: %w", p.index, err)
		}
		passes = append(passes, p)
		fmt.Fprintf(log, "perfbench: pass %d traced=%v %.3fs cycles=%.0f %v\n",
			p.index, p.probe != nil, p.wall.Seconds(), p.cycles, sortedFigures(p.phases))
		// Stop before a pass that would likely end past the measured
		// time: runs then last -seconds, not -seconds plus a pass.
		elapsed := time.Since(start)
		if i+1 >= minPasses && elapsed+elapsed/time.Duration(i+1) > cfg.seconds {
			break
		}
	}

	for _, p := range passes {
		merge(all, p.checks)
		res.Passes = append(res.Passes, passRecord{
			Traced: p.probe != nil, PassS: p.wall.Seconds(), CPUS: p.cpu.Seconds(), RSSMB: p.rss, Cycles: p.cycles,
			Phases: p.phases, Layers: p.layers, Outputs: p.outputs,
		})
	}
	checkDeterminism(all, append([]*pass{warm}, passes...))

	res.Ops = all.ops
	res.Errors = all.errs
	for _, o := range all.ops {
		res.Attempted += o.Attempted
		res.Failed += o.Failed
	}
	res.Correct = len(all.errs) == 0 && res.Failed == 0 && res.Attempted > 0
	if cfg.trace {
		res.Metrics = layerMetrics(res, passes)
	} else {
		res.Metrics = endToEndMetrics(res, passes)
	}
	for _, msg := range res.Errors {
		fmt.Fprintln(log, "perfbench: WRONG:", msg)
	}
	return res, tr, nil
}

// checkDeterminism books one operation per pass output: every pass
// must reproduce the first pass's fingerprint of it.
func checkDeterminism(c *checks, passes []*pass) {
	first := passes[0].outputs
	for _, p := range passes[1:] {
		for _, name := range sortedKeys(first) {
			var err error
			if got := p.outputs[name]; got != first[name] {
				err = fmt.Errorf("pass %d output %s = %.16s, pass 0 gave %.16s", p.index, name, got, first[name])
			}
			c.gate("determinism", 1, err)
		}
	}
}

func merge(dst, src *checks) {
	dst.errs = append(dst.errs, src.errs...)
	for phase, o := range src.ops {
		dst.count(phase, o.Attempted, o.Failed)
	}
}

// untraced returns the passes that ran without instrumentation.
func untraced(passes []*pass) []*pass {
	var out []*pass
	for _, p := range passes {
		if p.probe == nil {
			out = append(out, p)
		}
	}
	return out
}

// endToEndMetrics computes BENCHMARK.json's end_to_end metrics from
// the untraced passes.
func endToEndMetrics(res *result, passes []*pass) map[string]metric {
	var wall, rate, rss []float64
	for _, p := range untraced(passes) {
		wall = append(wall, p.wall.Seconds())
		rate = append(rate, p.cycles/p.cycleTime.Seconds())
		rss = append(rss, p.rss)
	}
	values := map[string]float64{
		"setup_s":          median(res.SetupS),
		"pass_s":           median(wall),
		"sim_cycles_per_s": median(rate),
		"peak_rss_mb":      median(rss),
	}
	out := make(map[string]metric, len(endToEndSpec))
	for _, s := range endToEndSpec {
		out[s.name] = metric{Value: values[s.name], Unit: s.unit}
	}
	return out
}

// layerMetrics computes BENCHMARK.json's per_layer metrics: phase
// figures as medians over the untraced passes of the run, layer
// figures as medians over its traced passes.  A metric the workload
// does not exercise reads 0.
func layerMetrics(res *result, passes []*pass) map[string]metric {
	values := make(map[string]float64)
	plain := untraced(passes)
	var traced []*pass
	for _, p := range passes {
		if p.probe != nil {
			traced = append(traced, p)
		}
	}
	for _, s := range perLayerSpec {
		var xs []float64
		for _, p := range plain {
			if v, ok := p.phases[s.name]; ok {
				xs = append(xs, v)
			}
		}
		for _, p := range traced {
			if v, ok := p.layers[s.name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			values[s.name] = median(xs)
		}
	}
	if res.Attempted > 0 {
		values["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	}
	var plainWall, tracedWall []float64
	for _, p := range plain {
		plainWall = append(plainWall, p.wall.Seconds())
	}
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall.Seconds())
	}
	if len(plainWall) > 0 && len(tracedWall) > 0 {
		values["trace.overhead_frac"] = median(tracedWall)/median(plainWall) - 1
	}
	out := make(map[string]metric, len(perLayerSpec))
	for _, s := range perLayerSpec {
		v := values[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedFigures(m map[string]float64) string {
	s := ""
	for _, k := range sortedKeys(m) {
		s += fmt.Sprintf("%s=%.4g ", k, m[k])
	}
	return s
}
