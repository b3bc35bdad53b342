package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/remote"
)

// Campaign serving tiers, counted per request in Server.tiers: the
// /v1/metrics cache block and fx8d_cache_outcomes_total{tier}.
const (
	tierMemory  = iota // result in memory, or joined a run in flight
	tierDisk           // job already done, or its artefact in the store
	tierCompute        // this request started the job's run
)

var tierNames = [...]string{"memory", "disk", "compute"}

func (s *Server) cacheStats() core.CacheStats {
	return core.CacheStats{
		MemoryHits:  s.tiers[tierMemory].Load(),
		DiskHits:    s.tiers[tierDisk].Load(),
		Computes:    s.tiers[tierCompute].Load(),
		StoreErrors: s.coord.Stats().StoreErrors,
	}
}

// campaign is the one campaign path: it submits spec as a coordinator
// job, waits for it and returns its result; hit reports whether a
// cache tier served it rather than a run this request started.
// Workers is left 0 in every spec, so a campaign's job ID is the one
// the CLI tools' -job flag submits.
func (s *Server) campaign(ctx context.Context, spec coord.JobSpec) (res *coord.JobResult, hit bool, err error) {
	id, err := coord.JobID(spec)
	if err != nil {
		return nil, false, err
	}
	if res, ok := s.coord.CachedResult(id); ok {
		s.tiers[tierMemory].Add(1)
		return res, true, nil
	}
	tier := -1 // counted once per request, for its last submitted pass
	defer func() {
		if tier >= 0 {
			s.tiers[tier].Add(1)
		}
	}()
	// A memory-only coordinator can evict the result between Wait and
	// Result; the second pass resubmits, which reruns such a job.
	for pass := 0; ; pass++ {
		t, err := s.awaitJob(ctx, spec, id)
		if t >= 0 {
			tier = t
		}
		if err != nil {
			return nil, false, err
		}
		res, err = s.coord.Result(id)
		if err == nil || pass == 1 {
			return res, tier != tierCompute, coordErr(err)
		}
	}
}

// awaitJob submits spec and waits for its job to finish done, telling
// which tier answers it: memory when the job was already running (the
// request joins it), disk when it was already done, compute when this
// call started it, and -1 when the submission failed.
func (s *Server) awaitJob(ctx context.Context, spec coord.JobSpec, id string) (tier int, err error) {
	st, _, err := s.coord.Submit(spec)
	if err != nil {
		return -1, coordErr(err)
	}
	tier = tierMemory
	switch st.State {
	case coord.StateDone:
		tier = tierDisk
	case coord.StateQueued:
		tier = tierCompute
	}
	if st, err = s.coord.Wait(ctx, id); err != nil {
		return tier, err
	}
	if st.State != coord.StateDone {
		// Failed, canceled, or left resumable by a shutdown: the next
		// request reruns or resumes the job.
		return tier, httpError{http.StatusServiceUnavailable, remote.CodeInternal,
			fmt.Sprintf("campaign job %s ended %s: %s", id, st.State, st.Error)}
	}
	return tier, nil
}

// ProgressEvent is one SSE data payload of /v1/progress.
type ProgressEvent struct {
	Scale string `json:"scale"`
	State string `json:"state"` // idle | running | done
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// handleProgress streams the progress of one scale's study job as
// server-sent events.  A study with no job reports idle and closes; a
// queued or running job streams running events until it is done
// (failed or canceled jobs report idle: nothing is resident).
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	scale, cfg, err := scaleParam(r)
	if err != nil {
		s.metrics.record("progress", 0, true)
		writeError(w, http.StatusBadRequest, remote.CodeInvalidConfig, err.Error())
		return
	}
	// A StudyConfig always encodes, so JobID cannot fail.
	id, _ := coord.JobID(coord.JobSpec{Kind: "study", Study: &cfg})
	idle := ProgressEvent{Scale: scale, State: "idle", Total: cfg.TotalSessions()}
	s.streamJob(w, r, "progress", id, idle, func(st coord.JobStatus) any {
		ev := ProgressEvent{Scale: scale, State: "running", Done: st.Done, Total: st.Total}
		switch st.State {
		case coord.StateDone:
			ev.State = "done"
		case coord.StateFailed, coord.StateCanceled:
			ev.State = "idle"
		}
		return ev
	})
}

// streamPollInterval is how often a job stream samples the
// coordinator.
const streamPollInterval = 50 * time.Millisecond

// streamJob is the one SSE loop, behind /v1/jobs/{id}/events and
// /v1/progress: it sends view(status) as an event whenever the job's
// state or progress changes, ending once the job is terminal, the job
// vanishes (purge), or the client disconnects.  An unknown job is
// answered by absent as the only event, or — with absent nil — by the
// error envelope.  Streams are registered outside the admission gate
// and instrument themselves under endpoint.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, endpoint, id string, absent any, view func(coord.JobStatus) any) {
	start := time.Now()
	st, err := s.coord.Status(id)
	if err != nil && absent == nil { // Status fails only with ErrNotFound
		s.metrics.record(endpoint, time.Since(start), true)
		writeError(w, http.StatusNotFound, remote.CodeNotFound, err.Error())
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.metrics.record(endpoint, time.Since(start), true)
		writeError(w, http.StatusInternalServerError, remote.CodeInternal, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	defer func() { s.metrics.record(endpoint, time.Since(start), false) }()

	emit := func(v any) {
		data, _ := json.Marshal(v) // statuses and progress events always encode
		fmt.Fprintf(w, "data: %s\n\n", data)
		flusher.Flush()
	}
	if err != nil {
		emit(absent)
		return
	}
	ticker := time.NewTicker(streamPollInterval)
	defer ticker.Stop()
	var last coord.JobStatus
	for {
		if st.State != last.State || st.Done != last.Done {
			emit(view(st))
			last = st
		}
		if coord.TerminalState(st.State) {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
		if st, err = s.coord.Status(id); err != nil {
			return
		}
	}
}
