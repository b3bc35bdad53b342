package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/concentrix"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/fx8"
	"repro/internal/monitor"
)

// benchmarkJSON is the subset of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSpecsMatchBenchmarkJSON keeps the metric tables in the code and
// BENCHMARK.json the same.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var workloads []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", workloads, workloadNames())
	}
	var e2e, layers []metricSpec
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEndSpec) {
		t.Errorf("BENCHMARK.json end_to_end %v, code has %v", e2e, endToEndSpec)
	}
	if !reflect.DeepEqual(layers, perLayerSpec) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayerSpec")
	}
}

// checkoutRoot makes a directory that passes for a checkout.
func checkoutRoot(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module stand-in\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// TestTinyRuns runs every workload at the tiny size, untraced and
// traced, and checks that the summary line is correct and carries
// every metric BENCHMARK.json names, each finite.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", name, "-seed", "3", "-seconds", "0", "-trace", trace,
					"-root", checkoutRoot(t), "-size", "tiny"}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var sum struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatal(err)
				}
				if !sum.Correct || sum.Attempted < 1 || sum.Failed != 0 {
					t.Fatalf("summary %+v\n%s", sum, stderr.String())
				}
				var want []string
				if trace == "0" {
					for _, m := range b.EndToEnd {
						want = append(want, m.Name)
					}
				} else {
					for _, m := range b.PerLayer {
						want = append(want, m.Name)
					}
				}
				if len(sum.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(sum.Metrics), len(want))
				}
				for _, n := range want {
					m, ok := sum.Metrics[n]
					if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v, present %v", n, m, ok)
					}
				}
				if trace == "0" {
					for _, n := range want {
						if sum.Metrics[n].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", n, sum.Metrics[n].Value)
						}
					}
				}
			})
		}
	}
}

// TestRunFailsOutsideCheckout checks that a directory holding only the
// benchmark is refused without a summary.
func TestRunFailsOutsideCheckout(t *testing.T) {
	var stdout bytes.Buffer
	code := run([]string{"-workload", "fleet-units", "-root", t.TempDir(), "-size", "tiny"}, &stdout, io.Discard)
	if code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

// TestSameSeedSameInputs checks that a seed fixes the unit list and
// that another seed changes it.
func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(fleetUnits(7, 50), fleetUnits(7, 50)) {
		t.Error("fleetUnits differs for one seed")
	}
	if reflect.DeepEqual(fleetUnits(7, 50), fleetUnits(8, 50)) {
		t.Error("fleetUnits is the same for two seeds")
	}
}

// TestCorruptedPinFailsRun runs campaign-paper with a wrong pin for the
// quick study: the run must come out wrong, with failed operations.
func TestCorruptedPinFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("computes the quick study")
	}
	pins := pinnedFingerprints()
	pins["quick_study"] = strings.Repeat("0", 64)
	e := &env{seed: 1, tiny: true, scratch: t.TempDir(), pins: pins}
	cfg := runConfig{workload: "campaign-paper", seed: 1, tiny: true}
	w, _, _ := newWorkload(cfg.workload)
	res, _, err := drive(cfg, w, e, "test", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted pin passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestReloadMismatchFailsPass hands the campaign's checks a reloaded
// study that differs from the computed one.
func TestReloadMismatchFailsPass(t *testing.T) {
	cfg := tinyStudy(defaultSeed)
	st := core.RunStudyWorkers(cfg, 1)
	other := core.RunStudyWorkers(tinyStudy(defaultSeed+1), 1)
	w := &campaignWorkload{e: &env{tiny: true}, study: cfg}
	p := newPass(0)
	w.checkPass(p, st, st, core.CacheStats{DiskHits: 1}, "", nil, nil)
	if p.ops["reload"].Failed != 0 {
		t.Fatalf("identical reload failed: %v", p.errs)
	}
	p = newPass(0)
	w.checkPass(p, st, other, core.CacheStats{DiskHits: 1}, "", nil, nil)
	if p.ops["reload"].Failed != 1 {
		t.Error("a reloaded study that re-encodes differently passed")
	}
	p = newPass(0)
	w.checkPass(p, st, st, core.CacheStats{Computes: 1}, "", nil, nil)
	if p.ops["reload"].Failed != 1 {
		t.Error("a reload that recomputed instead of reading the store passed")
	}
}

// TestCorruptedResultFailsPass gives fleet-units a wrong local result
// for one unit: every phase must then fail its identity check.
func TestCorruptedResultFailsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("starts two backends")
	}
	w := &fleetWorkload{}
	e := &env{seed: 2, tiny: true, scratch: t.TempDir(), pins: pinnedFingerprints()}
	if err := w.setup(e, newChecks()); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	w.want[3] = strings.Repeat("f", 64)
	p := newPass(0)
	if err := w.pass(p); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"job_cold", "job_resume", "shard"} {
		if o := p.ops[phase]; o == nil || o.Failed == 0 {
			t.Errorf("phase %s: %+v, want failures", phase, o)
		}
	}
}

// TestGatesRejectBadInputs feeds each check a wrong input.
func TestGatesRejectBadInputs(t *testing.T) {
	e := &env{pins: map[string]string{"x": "aa"}}
	if e.checkPin("x", "ab") == nil || e.checkPin("y", "aa") == nil || e.checkPin("x", "aa") != nil {
		t.Error("checkPin accepts a wrong fingerprint or rejects the right one")
	}
	if checkJobCounts(coord.Stats{UnitsComputed: 3999}, 4000, 0) == nil {
		t.Error("checkJobCounts accepts a short cold job")
	}
	if checkJobCounts(coord.Stats{UnitsComputed: 1, UnitsReplayed: 3999}, 0, 4000) == nil {
		t.Error("checkJobCounts accepts a resume that computed")
	}
	units := fleetUnits(1, 2)
	res, err := core.RunStudyUnit(units[0])
	if err != nil {
		t.Fatal(err)
	}
	good := mustJSONSHA(res)
	if sameResults([]core.StudyUnitResult{res}, []string{good}) != nil {
		t.Error("sameResults rejects identical results")
	}
	if sameResults([]core.StudyUnitResult{res}, []string{strings.Repeat("0", 64)}) == nil {
		t.Error("sameResults accepts a different result")
	}
	s := []monitor.Sample{{EndCycle: 10}}
	if sameSamples(s, []monitor.Sample{{EndCycle: 11}}) == nil || sameSamples(s, s) != nil {
		t.Error("sameSamples misjudges samples")
	}

	c := newChecks()
	a, b := newPass(0), newPass(1)
	a.output("study", "aa")
	b.output("study", "ab")
	checkDeterminism(c, []*pass{a, b})
	if c.ops["determinism"].Failed != 1 || len(c.errs) != 1 {
		t.Errorf("checkDeterminism accepts two different outputs: %+v", c.ops["determinism"])
	}
}

// TestReplayMatchesSessions checks that the layer replay reproduces
// core's sessions of every kind.
func TestReplayMatchesSessions(t *testing.T) {
	cfg := tinyStudy(defaultSeed)
	st := core.RunStudyWorkers(cfg, 1)
	if err := replayStudy(nil, 0, cfg, st, 1); err != nil {
		t.Fatal(err)
	}
}

// TestSweepPointCycles checks the cycle count the campaign credits a
// sweep point with against a session of the same shape.
func TestSweepPointCycles(t *testing.T) {
	const samples = 2
	spec := core.SessionSpec{
		Samples:        samples,
		Sampling:       monitor.SampleSpec{Snapshots: 5, GapCycles: 20_000},
		Seed:           defaultSeed,
		WorkloadCycles: samples * 5 * (20_000 + monitor.BufferDepth*monitor.Timebase),
	}
	ses := core.RunCustomSession(fx8.DefaultConfig(), concentrix.DefaultSysConfig(), 1, spec)
	if got, want := float64(ses.Samples[len(ses.Samples)-1].EndCycle), sweepPointCycles(samples); got != want {
		t.Errorf("session ends at cycle %v, sweepPointCycles says %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "coord.job", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "http.request", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "http.request", Start: 40, End: 60},
		{ID: 5, Parent: 3, Name: "service.unit", Start: 25, End: 45},
	}
	got := selfTimes(spans)
	want := map[string]float64{"bench": 20e-9, "coord": 40e-9, "http": 30e-9, "service": 20e-9}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-15 {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || median([]float64{1, 2, 3, 4}) != 2.5 || median(nil) != 0 {
		t.Error("median")
	}
	if quantile(xs, 0.99) != 5 || quantile(xs, 0.2) != 1 || quantile(xs, 0.5) != 3 {
		t.Error("quantile")
	}
}
