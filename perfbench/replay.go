package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/concentrix"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fx8"
	"repro/internal/monitor"
	"repro/internal/workload"
)

// The replay re-runs a campaign's sessions below the core layer,
// through the public calls core makes itself — SessionArena.Boot
// (workload generation and machine boot), monitor.Controller's
// Acquire and AcquireBuffer, and concentrix's System.StepN over the
// unobserved gaps — so each of those layers gets its own timing.  A
// replay must reproduce the production session's samples exactly;
// the campaign workload checks that it does.

// replayUnit re-runs one study unit and returns its samples.
func replayUnit(p *probe, parent int64, u core.StudyUnit) ([]monitor.Sample, error) {
	switch {
	case u.Random != nil:
		return replayRandom(p, parent, *u.Random), nil
	case u.Triggered != nil:
		return replayTriggered(p, parent, *u.Triggered), nil
	}
	return nil, fmt.Errorf("unit %d has no spec", u.ID)
}

// boot boots a fresh arena the way core's sessions do.
func boot(p *probe, parent int64, seed, span uint64) *concentrix.System {
	_, end := p.begin("workload.boot", parent)
	defer end()
	return core.NewSessionArena().Boot(fx8.DefaultConfig(), concentrix.DefaultSysConfig(), workload.PaperMix(seed), span)
}

// randomSpan is the workload span a random session boots with.
func randomSpan(spec core.SessionSpec) uint64 {
	if spec.WorkloadCycles != 0 {
		return spec.WorkloadCycles
	}
	return uint64(spec.Samples) * uint64(spec.Sampling.Snapshots) * uint64(spec.Sampling.GapCycles+monitor.BufferDepth)
}

func replayRandom(p *probe, parent int64, spec core.SessionSpec) []monitor.Sample {
	sys := boot(p, parent, spec.Seed, randomSpan(spec))
	ctl := monitor.NewController(sys)
	gap := spec.Sampling.GapCycles
	out := make([]monitor.Sample, 0, spec.Samples)
	for i := 0; i < spec.Samples; i++ {
		s := monitor.Sample{StartCycle: sys.Cluster.Cycle(), Complete: true}
		faults0 := sys.Kernel.PageFaults()
		for k := 0; k < spec.Sampling.Snapshots; k++ {
			c0 := sys.Cluster.Cycle()
			_, end := p.begin("monitor.acquire", parent)
			counts, ok := ctl.Acquire(monitor.TriggerImmediate, gap+ctl.DAS.Span())
			end()
			p.add("monitor.observed_cycles", float64(sys.Cluster.Cycle()-c0))
			if !ok {
				s.Complete = false
			}
			s.Counts.Add(counts)
			_, end = p.begin("concentrix.step_n", parent)
			sys.StepN(gap)
			end()
			p.add("concentrix.gap_cycles", float64(gap))
		}
		s.EndCycle = sys.Cluster.Cycle()
		s.PageFaults = sys.Kernel.PageFaults() - faults0
		out = append(out, s)
	}
	return out
}

func replayTriggered(p *probe, parent int64, spec core.TriggeredSpec) []monitor.Sample {
	sys := boot(p, parent, spec.Seed, spec.WorkloadCycles)
	ctl := monitor.NewController(sys)
	var out []monitor.Sample
	for i := 0; i < spec.Samples; i++ {
		s := monitor.Sample{StartCycle: sys.Cluster.Cycle()}
		faults0 := sys.Kernel.PageFaults()
		got := 0
		for b := 0; b < spec.Buffers; b++ {
			c0 := sys.Cluster.Cycle()
			_, end := p.begin("monitor.acquire", parent)
			recs, ok := ctl.AcquireBuffer(spec.Mode, spec.BudgetCycles)
			end()
			p.add("monitor.observed_cycles", float64(sys.Cluster.Cycle()-c0))
			p.add("monitor.triggers", 1)
			if !ok {
				continue
			}
			p.add("monitor.trigger_hits", 1)
			got++
			s.Counts.Add(monitor.Reduce(recs))
		}
		s.EndCycle = sys.Cluster.Cycle()
		s.PageFaults = sys.Kernel.PageFaults() - faults0
		s.Complete = got == spec.Buffers
		if got > 0 {
			out = append(out, s)
		}
	}
	return out
}

// replayStudy replays every session of st on workers goroutines and
// checks each against the samples the campaign produced.
func replayStudy(p *probe, parent int64, cfg core.StudyConfig, st *core.Study, workers int) error {
	units := cfg.Units()
	want := make([][]monitor.Sample, 0, len(units))
	for _, s := range st.Random {
		want = append(want, s.Samples)
	}
	for _, s := range append(append([]*core.TriggeredSession(nil), st.HighConc...), st.Transition...) {
		want = append(want, s.Samples)
	}
	if len(want) != len(units) {
		return fmt.Errorf("study has %d sessions for %d units", len(want), len(units))
	}
	errs := engine.Map(workers, len(units), func(i int) error {
		got, err := replayUnit(p, parent, units[i])
		if err != nil {
			return err
		}
		return sameSamples(got, want[i])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("replay of unit %d: %w", i, err)
		}
	}
	return nil
}

func sameSamples(got, want []monitor.Sample) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if string(a) != string(b) {
		return fmt.Errorf("replayed samples %.16s differ from the session's %.16s", sha(a), sha(b))
	}
	return nil
}

// replayLayers turns a replay's counters into the layer metrics of the
// workload, concentrix and monitor layers.
func replayLayers(p *probe, layers map[string]float64) {
	layers["workload.boot_ms"] = 1000 * mean(p.durations("workload.boot"))
	layers["monitor.observed_cycles_per_s"] = ratio(p.count("monitor.observed_cycles"), sum(p.durations("monitor.acquire")))
	layers["concentrix.gap_cycles_per_s"] = ratio(p.count("concentrix.gap_cycles"), sum(p.durations("concentrix.step_n")))
	layers["monitor.trigger_hit_frac"] = ratio(p.count("monitor.trigger_hits"), p.count("monitor.triggers"))
}
