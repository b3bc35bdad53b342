package remote

import (
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
)

// ParseBackends splits a -backends flag value ("host:port,host:port")
// into its backend list, trimming blanks and dropping empty elements,
// so "" means no backends (local compute).
func ParseBackends(flagValue string) []string {
	var out []string
	for _, f := range strings.Split(flagValue, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// NewStudyClient returns a sharding client for campaign session units
// (fx8d's POST /v1/run/session), falling back to in-process sessions.
// Session units batch by default over POST /v1/run/sessions —
// DefaultBatchUnits units per request — because the per-unit JSON
// round trip is the remote layer's dominant overhead; backends
// without the batch endpoint degrade to the per-unit path.  Set
// cfg.BatchUnits to 1 alongside an empty BatchPath to force
// unbatched execution.
func NewStudyClient(cfg Config) *Client[core.StudyUnit, core.StudyUnitResult] {
	cfg.Path = SessionPath
	if cfg.BatchPath == "" && cfg.BatchUnits == 0 {
		cfg.BatchPath = SessionBatchPath
	}
	return NewClient(cfg, core.RunStudyUnit)
}

// NewSweepClient returns a sharding client for sweep-point units
// (fx8d's POST /v1/run/sweep), falling back to in-process points.
func NewSweepClient(cfg Config) *Client[experiments.SweepUnit, experiments.SweepPoint] {
	cfg.Path = SweepPath
	return NewClient(cfg, experiments.RunSweepUnit)
}

// StudyRunner resolves a -backends list to a session runner: nil for
// an empty list (the cache and cmd tools then compute in-process),
// otherwise a sharding client over the fleet.
func StudyRunner(backends []string) core.StudyRunner {
	if len(backends) == 0 {
		return nil
	}
	return NewStudyClient(Config{Backends: backends})
}

// SweepRunner resolves a -backends list to a sweep runner: nil for an
// empty list, otherwise a sharding client over the fleet.
func SweepRunner(backends []string) experiments.SweepRunner {
	if len(backends) == 0 {
		return nil
	}
	return NewSweepClient(Config{Backends: backends})
}
