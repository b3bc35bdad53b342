package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/remote"
)

// Paths of the job-resource API, shared with internal/service so
// client and server cannot drift.
const (
	JobsPath             = "/v1/jobs"
	BackendsPath         = "/v1/backends"
	BackendsRegisterPath = "/v1/backends/register"
)

// RegisterRequest is the POST /v1/backends/register body.
type RegisterRequest struct {
	// Addr is the worker's advertised address ("host:port" or URL).
	Addr string `json:"addr"`

	// TTLSeconds is the requested heartbeat TTL; 0 means DefaultTTL.
	TTLSeconds int `json:"ttl_seconds,omitempty"`
}

// doJSON issues one request and decodes the 200 response into out.
func doJSON(ctx context.Context, httpc *http.Client, method, url string, body, out any) error {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("coord: encoding request: %w", err)
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return fmt.Errorf("coord: %s: %w", url, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return fmt.Errorf("coord: %s: %w", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("coord: %s: reading response: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		msg := strings.TrimSpace(string(data))
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return fmt.Errorf("coord: %s: %s: %s", url, resp.Status, msg)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("coord: %s: decoding response: %w", url, err)
	}
	return nil
}

// SubmitJob POSTs a job spec to a coordinator daemon and returns the
// job's status (201 for a new job, 200 for a known one).
func SubmitJob(ctx context.Context, httpc *http.Client, base string, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := doJSON(ctx, httpc, http.MethodPost, remote.BaseURL(base)+JobsPath, spec, &st)
	return st, err
}

// FetchStatus GETs a job's status.
func FetchStatus(ctx context.Context, httpc *http.Client, base, id string) (JobStatus, error) {
	var st JobStatus
	err := doJSON(ctx, httpc, http.MethodGet, remote.BaseURL(base)+JobsPath+"/"+id, nil, &st)
	return st, err
}

// FetchResult GETs a done job's payload.
func FetchResult(ctx context.Context, httpc *http.Client, base, id string) (JobResult, error) {
	var res JobResult
	err := doJSON(ctx, httpc, http.MethodGet, remote.BaseURL(base)+JobsPath+"/"+id+"/result", nil, &res)
	return res, err
}

// AwaitJob polls a job's status every poll interval until it reaches
// a terminal state (or ctx ends), returning the final status.  poll
// <= 0 means 500ms.
func AwaitJob(ctx context.Context, httpc *http.Client, base, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := FetchStatus(ctx, httpc, base, id)
		if err != nil {
			return st, err
		}
		if TerminalState(st.State) {
			return st, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// SubmitAndWait is the submit-and-poll convenience the CLI tools use:
// submit a spec, await the job, and fetch its result.  A job that
// ends failed or canceled is an error quoting the job's Error.
func SubmitAndWait(ctx context.Context, httpc *http.Client, base string, spec JobSpec, poll time.Duration) (JobResult, error) {
	st, err := SubmitJob(ctx, httpc, base, spec)
	if err != nil {
		return JobResult{}, err
	}
	if st, err = AwaitJob(ctx, httpc, base, st.ID, poll); err != nil {
		return JobResult{}, err
	}
	if st.State != StateDone {
		return JobResult{}, fmt.Errorf("coord: job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return FetchResult(ctx, httpc, base, st.ID)
}

// RegisterBackend announces a worker to a coordinator daemon.
func RegisterBackend(ctx context.Context, httpc *http.Client, base, addr string, ttl time.Duration) error {
	if ttl > MaxTTL {
		ttl = MaxTTL // the registry clamps to this anyway
	}
	req := RegisterRequest{Addr: addr, TTLSeconds: int(ttl / time.Second)} //fxlint:allow truncation — clamped to MaxTTL seconds
	return doJSON(ctx, httpc, http.MethodPost, remote.BaseURL(base)+BackendsRegisterPath, req, nil)
}

// HeartbeatLoop re-registers addr with the coordinator at every
// interval until ctx ends — the worker side of TTL'd membership.  The
// TTL is three intervals, so one dropped heartbeat does not evict the
// worker.  Registration failures are retried at the same cadence (the
// coordinator may simply not be up yet).
func HeartbeatLoop(ctx context.Context, httpc *http.Client, base, addr string, interval time.Duration) {
	if interval <= 0 {
		interval = DefaultTTL / 3
	}
	ttl := 3 * interval
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		RegisterBackend(ctx, httpc, base, addr, ttl)
		select {
		case <-t.C:
		case <-ctx.Done():
			return
		}
	}
}
