package remote

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
	"repro/internal/retry"
)

// ErrorResponse is the service's unified error envelope: every
// non-200 response from fx8d carries this JSON body, so clients can
// branch on a machine-readable Code instead of parsing prose and can
// quote RequestID when correlating a failure with the backend's trace
// log.  It lives in this package — not internal/service — because the
// client parses it and the service imports the client's types, never
// the reverse.
type ErrorResponse struct {
	// Code is one of the Code* constants below.
	Code string `json:"code"`

	// Message is the human-readable detail.
	Message string `json:"message"`

	// RequestID echoes the X-Request-Id the server assigned (or was
	// given), the handle for GET /v1/trace/{id} on that backend.
	RequestID string `json:"request_id,omitempty"`
}

// Error implements error so a decoded envelope can be returned
// directly.
func (e ErrorResponse) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return e.Code + ": " + e.Message
}

// The machine-readable error codes.  Every code the service emits is
// listed here and documented in the README's error-code table.
const (
	// CodeInvalidConfig: the request body failed validation — bad
	// JSON, out-of-range parameters, an unknown kind.  HTTP 400.
	CodeInvalidConfig = "invalid_config"

	// CodeNotFound: no resource under that path — an unknown artefact
	// or job ID.  HTTP 404.
	CodeNotFound = "not_found"

	// CodeShed: the admission queue is full and the request was shed;
	// retry after the Retry-After delay.  HTTP 429.
	CodeShed = "shed"

	// CodeConflict: the request is valid but the resource's state
	// forbids it — cancelling an already-finished job.  HTTP 409.
	CodeConflict = "conflict"

	// CodeInternal: the handler failed to execute or encode a
	// response.  HTTP 500.
	CodeInternal = "internal"
)

// errorBody renders a non-200 response body for an error string: the
// envelope's "code: message" when the body decodes as one, otherwise
// the trimmed body truncated to 200 bytes (pre-envelope daemons,
// proxies in the path).
func errorBody(body []byte) string {
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err == nil && e.Code != "" {
		return e.Error()
	}
	msg := strings.TrimSpace(string(body))
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return msg
}

// PostUnit executes one unit on one backend endpoint in a single
// attempt: the unit is POSTed as JSON to url and the 200 response
// body decoded as R.  No rerouting, hedging or fallback happens here
// — this is the one-shot primitive for callers that do their own
// scheduling.  It shares roundTrip with the Client, so the request
// ID forwarding, timeout, Retry-After hint and error envelope are
// exactly the fleet's; timeout <= 0 means DefaultUnitTimeout.
func PostUnit[U, R any](ctx context.Context, httpc *http.Client, url string, unit U, timeout time.Duration) (R, error) {
	var zero R
	payload, err := json.Marshal(unit)
	if err != nil {
		return zero, fmt.Errorf("remote: encoding unit: %w", err)
	}
	if timeout <= 0 {
		timeout = DefaultUnitTimeout
	}
	if httpc == nil {
		httpc = http.DefaultClient
	}
	body, _, err := roundTrip(ctx, httpc, url, url, payload, timeout)
	if err != nil {
		return zero, err
	}
	var out R
	if err := json.Unmarshal(body, &out); err != nil {
		return zero, fmt.Errorf("remote: %s: decoding result: %w", url, err)
	}
	return out, nil
}

// roundTrip POSTs one JSON payload to url in a single attempt bounded
// by timeout and returns the 200 response body.  The driving
// context's request ID (obs.WithRequestID) is forwarded in the
// X-Request-Id header.  Errors name the backend as who and carry the
// HTTP status, so callers can tell an absent endpoint (404 on the
// batch path of an older daemon) from a failing backend; a non-200
// response surfaces the error envelope's code, and a shed (429)
// carries the advertised Retry-After as a retry.AfterHint.
func roundTrip(ctx context.Context, httpc *http.Client, who, url string, payload []byte, timeout time.Duration) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, 0, fmt.Errorf("remote: %s: %w", who, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("remote: %s: %w", who, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, fmt.Errorf("remote: %s: reading response: %w", who, err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		// The backend is shedding load and advertising when to come
		// back: hand the interval to the caller, so it waits instead
		// of re-entering the queue it was just shed from.
		err := fmt.Errorf("remote: %s: %s: %s", who, resp.Status, errorBody(body))
		return nil, resp.StatusCode, retry.WithAfter(err, parseRetryAfter(resp.Header.Get("Retry-After")))
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, fmt.Errorf("remote: %s: %s: %s", who, resp.Status, errorBody(body))
	}
	return body, resp.StatusCode, nil
}
