package coord

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/store"
)

// Store namespaces.  The unit namespaces are the per-unit result
// caches the service already writes (its POST /v1/run/* endpoints
// compute through them); they are defined here — the lowest layer
// that names them — so the coordinator's checkpoint writes and the
// service's unit cache are one and the same, which is what makes
// resume a replay of store hits.
const (
	// SessionUnitNamespace caches one campaign session per entry,
	// keyed by its core.StudyUnit.
	SessionUnitNamespace = "unit-session/v1"

	// SweepUnitNamespace caches one sweep point per entry, keyed by
	// its experiments.SweepUnit.
	SweepUnitNamespace = "unit-sweep/v1"

	// jobSpecNamespace derives job IDs from specs, making submission
	// idempotent: the same spec is the same job.
	jobSpecNamespace = "job-spec/v1"

	// jobNamespace stores job records (spec, state, unit ledger).
	jobNamespace = "job/v1"

	// jobLeaseNamespace stores job ownership leases, claimed with
	// store.Claim so two coordinators racing on one job lease it
	// exactly once.
	jobLeaseNamespace = "job-lease/v1"
)

// Job states.  queued and running jobs are resumable; done, failed
// and canceled are terminal.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// TerminalState reports whether a job in state will never change
// again.
func TerminalState(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// JobSpec describes one campaign as pure data: exactly one payload
// field matching Kind is set.  The spec is the job's identity — its
// canonical JSON hashes to the job ID — so submitting the same spec
// twice addresses the same job.
type JobSpec struct {
	// Kind is "study", "sweep" or "sessions".
	Kind string `json:"kind"`

	// Study is the campaign configuration for Kind "study".
	Study *core.StudyConfig `json:"study,omitempty"`

	// Sweep is the sweep configuration for Kind "sweep".
	Sweep *experiments.SweepConfig `json:"sweep,omitempty"`

	// Units are explicit session units for Kind "sessions" — the
	// submit-and-poll path of cmd/measure, which runs ad-hoc unit
	// lists that are not a named campaign.
	Units []core.StudyUnit `json:"units,omitempty"`

	// Workers bounds local compute when the coordinator executes
	// units in-process; 0 means one worker per CPU.
	Workers int `json:"workers,omitempty"`
}

// Validate rejects specs that name no work.
func (s JobSpec) Validate() error {
	switch s.Kind {
	case "study":
		if s.Study == nil {
			return errors.New("coord: study job without study config")
		}
		if s.Study.TotalSessions() <= 0 {
			return errors.New("coord: study config has no sessions")
		}
	case "sweep":
		if s.Sweep == nil {
			return errors.New("coord: sweep job without sweep config")
		}
		if experiments.DefaultSweepValues(s.Sweep.Kind) == nil {
			return fmt.Errorf("coord: unknown sweep kind %q", s.Sweep.Kind)
		}
		if len(s.Sweep.Values) == 0 {
			return errors.New("coord: sweep config has no values")
		}
	case "sessions":
		if len(s.Units) == 0 {
			return errors.New("coord: sessions job without units")
		}
	default:
		return fmt.Errorf("coord: unknown job kind %q (valid kinds: study, sweep, sessions)", s.Kind)
	}
	return nil
}

// JobID derives the job's identity from its spec: the first 16 hex
// digits of the spec's content address.  Deterministic, so submission
// is idempotent across processes and restarts.
func JobID(spec JobSpec) (string, error) {
	key, err := store.Key(jobSpecNamespace, spec)
	if err != nil {
		return "", err
	}
	return key[:16], nil
}

// JobRecord is the persisted form of a job: what a restarted
// coordinator needs to resume it.  The record does not carry unit
// results — those live in the per-unit cache entries named by
// UnitKeys — so the record stays small and checkpointing it is one
// O(units) write of keys, not payloads.
type JobRecord struct {
	ID    string  `json:"id"`
	Spec  JobSpec `json:"spec"`
	State string  `json:"state"`

	// Done / Total are unit completion counts as of the last
	// checkpoint; the unit cache is the source of truth on resume.
	Done  int `json:"done"`
	Total int `json:"total"`

	// UnitKeys are the per-unit completion keys, in unit order: entry
	// i of the campaign is complete exactly when the store holds
	// UnitKeys[i].
	UnitKeys []string `json:"unit_keys"`

	// Error holds the failure reason of a failed job.
	Error string `json:"error,omitempty"`

	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`
}

// JobStatus is the client-facing view of a job — what GET
// /v1/jobs/{id} returns.
type JobStatus struct {
	ID      string    `json:"id"`
	Kind    string    `json:"kind"`
	State   string    `json:"state"`
	Done    int       `json:"done"`
	Total   int       `json:"total"`
	Steals  uint64    `json:"steals,omitempty"`
	Summary string    `json:"summary,omitempty"`
	Error   string    `json:"error,omitempty"`
	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`
}

// JobResult is a finished job's payload: the field matching the
// spec's Kind is set.
type JobResult struct {
	Study    *core.Study              `json:"study,omitempty"`
	Points   []experiments.SweepPoint `json:"points,omitempty"`
	Sessions []core.StudyUnitResult   `json:"sessions,omitempty"`
}

// specUnits expands a spec into its session or sweep units and their
// per-unit completion keys, in canonical unit order.  Exactly one of
// the returned unit slices is non-nil.
func specUnits(spec JobSpec) (study []core.StudyUnit, sweep []experiments.SweepUnit, keys []string) {
	switch spec.Kind {
	case "study":
		study = spec.Study.Units()
	case "sessions":
		study = spec.Units
	case "sweep":
		sweep = spec.Sweep.Units()
		return nil, sweep, unitKeys(SweepUnitNamespace, sweep)
	}
	return study, nil, unitKeys(SessionUnitNamespace, study)
}

func unitKeys[U any](namespace string, units []U) []string {
	keys := make([]string, len(units))
	for i, u := range units {
		keys[i] = storeKey(namespace, u)
	}
	return keys
}

// artefactKey returns the store key of a study or sweep job's campaign
// artefact — the entry the CLI tools' -cache path reads and writes —
// or "" for a sessions job, whose payload is its unit entries.
func artefactKey(spec JobSpec) string {
	var key string
	switch spec.Kind {
	case "study":
		key, _ = core.StudyKey(*spec.Study)
	case "sweep":
		key, _ = experiments.SweepKey(*spec.Sweep)
	}
	return key
}

// storeKey returns the store key of v, which must encode: a string
// identity, or part of a spec whose JobID was derived, so whose
// encoding already succeeded.
func storeKey(namespace string, v any) string {
	key, _ := store.Key(namespace, v)
	return key
}

// recordKey returns the store key of a job's record.
func recordKey(id string) string { return storeKey(jobNamespace, id) }

// LeaseKey returns the store key of a job's ownership lease.  It is
// exported for tests that assert lease hygiene — a finished or
// cleanly-lost job must leave no lease entry behind — and for fault
// injectors that target lease writes specifically.
func LeaseKey(id string) string { return storeKey(jobLeaseNamespace, id) }

// indexKey returns the store key of the job index — the ID list
// behind GET /v1/jobs.
func indexKey() string { return storeKey(jobNamespace, "index") }

// leaseRecord is a job lease's payload: who owns the job and until
// when.  An expired lease is taken over, so a coordinator that died
// without releasing does not wedge its jobs forever.
type leaseRecord struct {
	Owner   string    `json:"owner"`
	Expires time.Time `json:"expires"`
}
