// Package remote is the client side of sharded execution: an
// engine.Runner that ships work units — campaign sessions, sweep
// points — to a fleet of fx8d backends over HTTP and reassembles
// their results.
//
// Every unit is a pure function of its JSON-encoded description, so
// the client is free to schedule aggressively: units go to the
// least-loaded live backend, a failed unit is rerouted to the next
// backend, a slow unit is hedged (a duplicate fired at another
// backend, first answer wins), and when every backend is dead or none
// was configured the unit is computed locally.  Work is never lost —
// a backend killed mid-run costs only the latency of rerouting its
// in-flight units — and because the engine reassembles results in
// unit order, sharded output is byte-identical to local output for
// every backend count.
//
// The serving side is fx8d's POST /v1/run/session and POST
// /v1/run/sweep endpoints (internal/service), which execute one unit
// per request behind the daemon's admission semaphore and cache unit
// results in the campaign store.
//
// # Configuration and membership
//
// Clients are built from a literal Config via NewClient or the
// NewStudyClient / NewSweepClient constructors; zero fields mean
// their Default*.  Config.Registry attaches a BackendSource (e.g. the
// fleet coordinator's TTL'd registry) so membership is re-snapshotted
// per scheduling decision: lapsed backends stop receiving units, and
// a backend that rejoins sheds its dead/failure quarantine along with
// the old entry.  The coordinator runs its jobs on this same client,
// so there is one fleet scheduler for -backends runs and /v1/jobs.
//
// # Errors
//
// Non-2xx responses from fx8d carry the unified ErrorResponse
// envelope (code, message, request ID); the client decodes it and
// surfaces "code: message" in its error strings, so callers and logs
// can branch on the machine-readable code.
//
// # Telemetry and tracing
//
// The client keeps a per-backend latency histogram (every attempt,
// success or failure, is observed) plus counters for reroutes,
// hedges, quarantines and batched requests, all snapshotted by
// Stats.  When the driving context carries a request ID
// (obs.WithRequestID), every unit and batch POST forwards it in the
// X-Request-Id header, so each backend's span log attributes the
// campaign's units to one trace — GET /v1/trace/{id} on the backends
// reconstructs where a sharded campaign's time went.
package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
)

// Paths of the fx8d unit-execution endpoints, shared with
// internal/service so client and server cannot drift.  The batch
// path carries a JSON array of session units per request — one POST,
// many units — amortizing the per-unit HTTP and JSON round trip that
// dominates the remote layer's overhead.
const (
	SessionPath      = "/v1/run/session"
	SessionBatchPath = "/v1/run/sessions"
	SweepPath        = "/v1/run/sweep"
)

// Defaults for Config's zero fields.
const (
	DefaultUnitTimeout = 10 * time.Minute
	DefaultHedgeAfter  = 30 * time.Second
	DefaultMaxFailures = 3
	DefaultBatchUnits  = 16
)

// Config sizes a Client.
type Config struct {
	// Backends are the fx8d nodes, as "host:port" (http:// is
	// assumed) or full URLs.
	Backends []string

	// Path is the unit-execution endpoint (SessionPath or
	// SweepPath).
	Path string

	// UnitTimeout bounds one attempt of one unit on one backend;
	// a timed-out attempt counts as a backend failure and the unit
	// is rerouted.  0 means DefaultUnitTimeout.
	UnitTimeout time.Duration

	// HedgeAfter is how long a unit's oldest attempt may run before
	// a duplicate is fired at another backend (tail-latency hedging;
	// first answer wins).  0 means DefaultHedgeAfter.
	HedgeAfter time.Duration

	// MaxFailures is how many failed units mark a backend dead; a
	// dead backend receives no further units for the life of the
	// client.  0 means DefaultMaxFailures.
	MaxFailures int

	// BatchPath is the batched unit-execution endpoint
	// (SessionBatchPath).  When set, the engine drives the client at
	// batch granularity: BatchUnits units per POST instead of one.
	// Empty disables batching.
	BatchPath string

	// BatchUnits is how many units one batched request carries when
	// BatchPath is set.  0 means DefaultBatchUnits.
	BatchUnits int

	// Retry is the retry/backoff policy for units no backend could
	// serve on the first pass: when live backends are merely shedding
	// (429 + Retry-After) rather than failing, the client backs off
	// under this policy and retries the unit instead of falling back
	// to local compute.  The policy's PerAttempt, when set, overrides
	// UnitTimeout as the per-attempt bound; its Metrics field, when
	// set, receives every retry outcome (otherwise the client books
	// into its own, visible via Stats).  The zero value means the
	// retry package defaults.
	Retry retry.Policy

	// Registry, when set, makes fleet membership dynamic: its
	// Snapshot is re-read before every unit or batch and replaces the
	// backend list, so workers registered via POST /v1/backends/
	// register join mid-campaign and lapsed heartbeats drop out.  The
	// static Backends list seeds membership until the first snapshot.
	Registry BackendSource

	// HTTPClient overrides the transport (tests); nil uses a
	// dedicated default client.
	HTTPClient *http.Client
}

// BackendSource supplies the current fleet membership: Snapshot
// returns the live backend addresses, in a stable order.  The
// coordinator's registry (internal/coord.Registry, fed by POST
// /v1/backends/register heartbeats) implements it; a client whose
// Config.Registry is set re-reads the snapshot on every unit or batch
// and follows joins and leaves without reconstruction.
type BackendSource interface {
	Snapshot() []string
}

// backend is one fx8d node and its health accounting.
type backend struct {
	addr     string // as configured, for Stats
	url      string // resolved endpoint URL
	batchURL string // resolved batch endpoint URL ("" = no batching)
	inflight atomic.Int64
	failures atomic.Int64
	units    atomic.Uint64 // completed units
	dead     atomic.Bool
	noBatch  atomic.Bool    // batch endpoint absent (version skew)
	lat      *obs.Histogram // per-attempt request latency

	// backoffUntil is the UnixNano deadline of a shed-induced backoff:
	// a backend that answered 429 + Retry-After is overloaded, not
	// sick, so instead of counting failures toward quarantine the
	// client stops routing units to it until the advertised interval
	// has passed.
	backoffUntil atomic.Int64
}

// inBackoff reports whether the backend is inside a shed-induced
// backoff window.
func (b *backend) inBackoff(now int64) bool { return b.backoffUntil.Load() > now }

// shed books a 429 + Retry-After response: back off for the
// advertised interval.
func (b *backend) shed(after time.Duration) {
	b.backoffUntil.Store(time.Now().Add(after).UnixNano())
}

// fail books one failed attempt, reporting whether this failure is
// the one that quarantined the backend (so the client can count
// quarantine transitions exactly once).
func (b *backend) fail(maxFailures int) (quarantined bool) {
	if b.failures.Add(1) >= int64(maxFailures) {
		return !b.dead.Swap(true)
	}
	return false
}

func (b *backend) ok() {
	b.failures.Store(0)
	b.units.Add(1)
}

// Client is a sharding engine.Runner[U, R]: U is POSTed as JSON to
// one backend's Path and R decoded from the 200 response.  fallback
// computes a unit in-process when no backend can.  All methods are
// safe for concurrent use; drive it with engine.RunAll.
type Client[U, R any] struct {
	cfg      Config
	fallback func(U) (R, error)
	httpc    *http.Client
	retry    retry.Policy   // resolved policy (metrics attached)
	rmetrics *retry.Metrics // retry outcome counters, snapshotted by Stats

	// Membership.  The backends slice is replaced wholesale under mu
	// on every registry refresh and never mutated in place, so view()
	// hands out a stable snapshot; byAddr survives leaves so a
	// rejoining backend keeps its latency history.
	mu       sync.RWMutex
	backends []*backend
	byAddr   map[string]*backend
	sig      string // joined snapshot the current membership was built from

	rr          atomic.Uint64 // round-robin tiebreak for pick
	fallbackN   atomic.Uint64
	hedgeN      atomic.Uint64
	batchN      atomic.Uint64
	rerouteN    atomic.Uint64 // attempts relaunched after a failure
	quarantineN atomic.Uint64 // backends transitioned to dead
	hedgeWake   atomic.Uint64 // hedge-timer wakeups (tests pin these down)
}

// NewClient builds a sharding client; fallback is the local compute
// path used when every backend is dead or none was configured.
func NewClient[U, R any](cfg Config, fallback func(U) (R, error)) *Client[U, R] {
	if cfg.UnitTimeout <= 0 {
		cfg.UnitTimeout = DefaultUnitTimeout
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = DefaultHedgeAfter
	}
	if cfg.MaxFailures <= 0 {
		cfg.MaxFailures = DefaultMaxFailures
	}
	if cfg.BatchUnits <= 0 {
		cfg.BatchUnits = DefaultBatchUnits
	}
	c := &Client[U, R]{cfg: cfg, fallback: fallback, httpc: cfg.HTTPClient,
		byAddr: make(map[string]*backend)}
	c.retry = cfg.Retry
	if c.retry.PerAttempt <= 0 {
		c.retry.PerAttempt = cfg.UnitTimeout
	}
	c.rmetrics = c.retry.Metrics
	if c.rmetrics == nil {
		c.rmetrics = &retry.Metrics{}
		c.retry.Metrics = c.rmetrics
	}
	if c.httpc == nil {
		c.httpc = &http.Client{}
	}
	for _, addr := range cfg.Backends {
		b := c.newBackend(addr)
		c.byAddr[addr] = b
		c.backends = append(c.backends, b)
	}
	c.refresh()
	return c
}

// BaseURL normalizes a backend address — "host:port" (http:// is
// assumed) or a full URL — to a URL prefix without a trailing slash,
// onto which endpoint paths are appended.
func BaseURL(addr string) string {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	return strings.TrimRight(url, "/")
}

// newBackend resolves one configured address into its endpoint URLs.
func (c *Client[U, R]) newBackend(addr string) *backend {
	base := BaseURL(addr)
	b := &backend{addr: addr, url: base + c.cfg.Path, lat: obs.NewHistogram(nil)}
	if c.cfg.BatchPath != "" {
		b.batchURL = base + c.cfg.BatchPath
	}
	return b
}

// refresh re-reads the registry snapshot and swaps in the new
// membership when it changed.  Retained addresses keep their backend
// (stats, health) untouched; a re-appearing address is revived —
// quarantine and failure count cleared — because re-registration
// after an absence is the signal the node was fixed; absent addresses
// simply drop out of the slice (byAddr remembers them for a later
// rejoin).  Without a registry this is a no-op and membership is the
// static Backends list for the life of the client.
func (c *Client[U, R]) refresh() {
	if c.cfg.Registry == nil {
		return
	}
	addrs := c.cfg.Registry.Snapshot()
	// The NUL prefix keeps any snapshot — including an empty one —
	// distinct from the never-refreshed zero sig, so the static seed
	// list is replaced exactly once even by an empty fleet.
	sig := "\x00" + strings.Join(addrs, ",")
	c.mu.RLock()
	same := sig == c.sig
	c.mu.RUnlock()
	if same {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sig == c.sig { // lost the rebuild race to an identical snapshot
		return
	}
	list := make([]*backend, 0, len(addrs))
	current := make(map[string]bool, len(c.backends))
	for _, b := range c.backends {
		current[b.addr] = true
	}
	for _, addr := range addrs {
		b, ok := c.byAddr[addr]
		if !ok {
			b = c.newBackend(addr)
			c.byAddr[addr] = b
		} else if !current[addr] {
			b.dead.Store(false)
			b.failures.Store(0)
			b.noBatch.Store(false)
		}
		list = append(list, b)
	}
	c.backends = list
	c.sig = sig
}

// view returns the current membership snapshot.  The slice is
// immutable once published, so callers iterate without holding mu.
func (c *Client[U, R]) view() []*backend {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.backends
}

// Concurrency implements engine.Sizer: with backends configured the
// pool is sized to keep every backend's admission queue fed (four
// units in flight per backend, fx8d's default -max-inflight) rather
// than to the local CPU count.
func (c *Client[U, R]) Concurrency(requested int) int {
	if requested > 0 {
		return requested
	}
	c.refresh()
	n := len(c.view())
	if n == 0 {
		return 0 // let the engine pick DefaultWorkers
	}
	return 4 * n
}

// RunUnit implements engine.Runner: it executes one unit on the
// fleet, rerouting on failure and hedging slow attempts.  A round
// that exhausts every backend without an answer ends one of two ways:
// when some live backend is merely shedding (429 + Retry-After), the
// client backs off under its retry policy — honoring the advertised
// interval — and runs another round; when backends are dead or
// failing outright, the unit falls back to local compute so work is
// never lost.  The only errors it returns are the context's — a unit
// outcome is otherwise always produced.
func (c *Client[U, R]) RunUnit(ctx context.Context, unit U) (R, error) {
	var zero R
	payload, err := json.Marshal(unit)
	if err != nil {
		return zero, fmt.Errorf("remote: encoding unit: %w", err)
	}

	// Membership is pinned per unit: a refresh mid-unit affects the
	// next unit, not attempts already in flight.
	c.refresh()
	backends := c.view()

	maxRounds := c.retry.MaxAttempts
	if maxRounds == 0 {
		maxRounds = retry.DefaultMaxAttempts
	}
	for round := 1; ; round++ {
		res, done, err := c.runRound(ctx, backends, payload)
		if done {
			return res, err
		}
		// The round exhausted every live backend without an answer.
		// If any of them is merely backing off after a shed, the unit
		// is still servable: wait out the shortest backoff under the
		// policy and go again.  Otherwise (dead, failing, or none
		// configured) fall through to local compute.
		hint, shedding := c.soonestBackoff(backends)
		if !shedding || round >= maxRounds {
			break
		}
		c.rmetrics.Retries.Inc()
		if err := c.retry.Wait(ctx, round, hint); err != nil {
			return zero, err
		}
	}

	if ctx.Err() != nil {
		return zero, ctx.Err()
	}
	// Giving up on the fleet for this unit; local compute still
	// produces the answer.
	c.rmetrics.GiveUps.Inc()
	c.fallbackN.Add(1)
	return c.fallback(unit)
}

// runRound runs one full pass of the launch/reroute/hedge machinery
// over the pinned membership.  done reports a definitive outcome (a
// result or a context error); !done means every live backend was
// tried or skipped and the caller decides between another round and
// local fallback.
func (c *Client[U, R]) runRound(ctx context.Context, backends []*backend, payload []byte) (res R, done bool, err error) {
	var zero R

	// unitCtx cancels the losers once any attempt wins.
	unitCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type attempt struct {
		res    R
		err    error
		status int
		b      *backend
	}
	results := make(chan attempt, len(backends)) // attempts never block on send
	tried := make(map[*backend]bool, len(backends))
	inFlight := 0

	// The hedge clock follows the most recently launched attempt: it
	// is armed when an attempt launches and fires once that attempt
	// has run HedgeAfter without an answer.  Events that launch
	// nothing (a stale result from a canceled duplicate, a failure
	// with no backend left to reroute to) never touch the clock, and
	// once no untried live backend remains the timer is disarmed for
	// good — no wakeup can ever launch anything again, so none
	// happens.
	var hedge *time.Timer
	var hedgeC <-chan time.Time
	disarm := func() {
		if hedge != nil {
			hedge.Stop()
			hedge, hedgeC = nil, nil
		}
	}
	defer disarm()

	// launch fires the unit at the best untried live backend,
	// reporting whether one existed, and rewinds the hedge clock for
	// the new attempt.
	launch := func() bool {
		b := c.pick(backends, tried)
		if b == nil {
			return false
		}
		tried[b] = true
		inFlight++
		b.inflight.Add(1)
		c.rmetrics.Attempts.Inc()
		go func() {
			res, status, err := c.post(unitCtx, b, b.url, payload)
			b.inflight.Add(-1)
			results <- attempt{res, err, status, b}
		}()
		disarm()
		hedge = time.NewTimer(c.cfg.HedgeAfter)
		hedgeC = hedge.C
		return true
	}

	launch()
	for inFlight > 0 {
		select {
		case a := <-results:
			inFlight--
			if a.err == nil {
				a.b.ok()
				return a.res, true, nil
			}
			if unitCtx.Err() == nil && a.status != http.StatusTooManyRequests {
				// A real failure, not an attempt we canceled and not a
				// shed: a shedding backend is overloaded, not sick —
				// postRaw already booked its Retry-After backoff, and
				// counting it toward quarantine would amplify the
				// overload into an outage.
				if a.b.fail(c.cfg.MaxFailures) {
					c.quarantineN.Add(1)
				}
			}
			if ctx.Err() != nil {
				return zero, true, ctx.Err()
			}
			if launch() { // reroute to the next backend, if any
				c.rerouteN.Add(1)
				c.rmetrics.Retries.Inc()
			} else {
				// Nothing left to launch, ever: hedging is over.
				disarm()
			}
		case <-hedgeC:
			// The newest attempt is slow: duplicate the unit on
			// another backend and take whichever answers first.
			c.hedgeWake.Add(1)
			if launch() {
				c.hedgeN.Add(1)
			} else {
				disarm()
			}
		case <-ctx.Done():
			return zero, true, ctx.Err()
		}
	}
	return zero, false, nil
}

// soonestBackoff reports whether any live backend is inside a
// shed-induced backoff window, and if so the shortest remaining wait
// — the Retry-After hint for the next round.
func (c *Client[U, R]) soonestBackoff(backends []*backend) (time.Duration, bool) {
	now := time.Now().UnixNano()
	var best int64
	for _, b := range backends {
		if b.dead.Load() {
			continue
		}
		if until := b.backoffUntil.Load(); until > now && (best == 0 || until < best) {
			best = until
		}
	}
	if best == 0 {
		return 0, false
	}
	return time.Duration(best - now), true
}

// BatchUnits implements engine.BatchRunner's sizing half: batching is
// on when a batch path is configured and backends exist; otherwise 1
// tells the engine to drive RunUnit.
func (c *Client[U, R]) BatchUnits() int {
	if c.cfg.BatchPath == "" {
		return 1
	}
	c.refresh()
	if len(c.view()) == 0 {
		return 1
	}
	return c.cfg.BatchUnits
}

// RunBatch implements engine.BatchRunner: it ships a contiguous run
// of units to one backend's batch endpoint in a single POST, trying
// each untried live batch-capable backend in least-loaded order.  A
// backend whose batch endpoint is absent (404/405 from an older
// daemon) is remembered as batchless — not failed — and the units
// flow through RunUnit instead, which reroutes, hedges, and falls
// back to local compute per unit; so does a batch no backend could
// serve.  Batches are not hedged: a duplicated batch would duplicate
// every unit in it.  Either way the results come back one per unit,
// in unit order, byte-identical to the unbatched path — the server
// computes batch units through the same per-unit cache namespace.
func (c *Client[U, R]) RunBatch(ctx context.Context, units []U) ([]R, error) {
	payload, err := json.Marshal(units)
	if err != nil {
		return nil, fmt.Errorf("remote: encoding unit batch: %w", err)
	}
	c.refresh()
	backends := c.view()
	tried := make(map[*backend]bool, len(backends))
	failed := 0 // attempts that failed on a live backend (not version skew)
	for {
		b := c.pickBatch(backends, tried)
		if b == nil {
			break
		}
		if failed > 0 {
			// This launch is a retry of a batch a previous backend
			// failed, not the first attempt.
			c.rerouteN.Add(1)
		}
		tried[b] = true
		b.inflight.Add(int64(len(units)))
		body, status, err := c.postRaw(ctx, b, b.batchURL, payload)
		b.inflight.Add(int64(-len(units)))
		if err != nil {
			if status == http.StatusNotFound || status == http.StatusMethodNotAllowed {
				// An older daemon without the batch endpoint, not a
				// sick one.
				b.noBatch.Store(true)
				continue
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if status == http.StatusTooManyRequests {
				// Shedding, not sick: the backoff is already booked;
				// the per-unit degrade path below waits it out.
				failed++
				continue
			}
			if b.fail(c.cfg.MaxFailures) {
				c.quarantineN.Add(1)
			}
			failed++
			continue
		}
		var out []R
		if err := json.Unmarshal(body, &out); err != nil {
			if b.fail(c.cfg.MaxFailures) {
				c.quarantineN.Add(1)
			}
			failed++
			continue
		}
		if len(out) != len(units) {
			if b.fail(c.cfg.MaxFailures) {
				c.quarantineN.Add(1)
			}
			failed++
			continue
		}
		b.failures.Store(0)
		b.units.Add(uint64(len(units)))
		c.batchN.Add(1)
		return out, nil
	}

	// No batch-capable backend could serve the batch: degrade to the
	// per-unit path, which carries its own reroute/hedge/local-
	// fallback machinery.
	out := make([]R, len(units))
	for i, u := range units {
		res, err := c.RunUnit(ctx, u)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// pickBatch is pick restricted to batch-capable backends.
func (c *Client[U, R]) pickBatch(backends []*backend, tried map[*backend]bool) *backend {
	n := len(backends)
	if n == 0 {
		return nil
	}
	start := int(c.rr.Add(1) % uint64(n))
	now := time.Now().UnixNano()
	var best *backend
	var bestLoad int64
	for i := 0; i < n; i++ {
		b := backends[(start+i)%n]
		if tried[b] || b.dead.Load() || b.noBatch.Load() || b.batchURL == "" || b.inBackoff(now) {
			continue
		}
		if load := b.inflight.Load(); best == nil || load < bestLoad {
			best, bestLoad = b, load
		}
	}
	return best
}

// pick returns the untried live backend with the fewest units in
// flight, rotating the scan start so ties spread round-robin.
func (c *Client[U, R]) pick(backends []*backend, tried map[*backend]bool) *backend {
	n := len(backends)
	if n == 0 {
		return nil
	}
	// Reduce the counter in uint64 before converting: int(Add(1))
	// truncates, and a truncated counter past 2^31 (386) or 2^63
	// goes negative, making (start+i)%n a negative — panicking —
	// index.
	start := int(c.rr.Add(1) % uint64(n))
	now := time.Now().UnixNano()
	var best *backend
	var bestLoad int64
	for i := 0; i < n; i++ {
		b := backends[(start+i)%n]
		if tried[b] || b.dead.Load() || b.inBackoff(now) {
			continue
		}
		if load := b.inflight.Load(); best == nil || load < bestLoad {
			best, bestLoad = b, load
		}
	}
	return best
}

// post runs one attempt of one unit's payload on one backend
// endpoint, returning the HTTP status alongside the decoded result so
// the scheduler can tell a shed (429) from a failure.
func (c *Client[U, R]) post(ctx context.Context, b *backend, url string, payload []byte) (R, int, error) {
	var zero R
	body, status, err := c.postRaw(ctx, b, url, payload)
	if err != nil {
		return zero, status, err
	}
	var out R
	if err := json.Unmarshal(body, &out); err != nil {
		return zero, status, fmt.Errorf("remote: %s: decoding result: %w", b.addr, err)
	}
	return out, status, nil
}

// postRaw runs one attempt of one payload on one backend endpoint
// through roundTrip, observing its latency and booking a shed (429 +
// Retry-After) as a backoff window: routing more units at the backend
// inside the window would only re-enter the queue it just shed from.
func (c *Client[U, R]) postRaw(ctx context.Context, b *backend, url string, payload []byte) ([]byte, int, error) {
	start := time.Now()
	body, status, err := roundTrip(ctx, c.httpc, b.addr, url, payload, c.retry.PerAttempt)
	b.lat.Observe(int64(time.Since(start)))
	if status == http.StatusTooManyRequests {
		after, _ := retry.AfterHint(err)
		b.shed(after)
	}
	return body, status, err
}

// parseRetryAfter reads an integer-seconds Retry-After header value;
// absent or unparsable values mean one second, the interval fx8d's
// admission control advertises.
func parseRetryAfter(v string) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return time.Second
}

// BackendStats is one backend's share of a client's work.
type BackendStats struct {
	Addr     string
	Units    uint64 // units this backend completed
	Failures int64  // consecutive failures (reset on success)
	Dead     bool
	InFlight int64 // units in flight right now

	// Per-attempt request latency quantiles, estimated from the
	// backend's histogram; zero until the backend has served an
	// attempt.
	P50, P95, P99 time.Duration
}

// Stats snapshots how the client's units were executed — which
// backends did the work and how fast, how many units fell back to
// local compute, how many hedges fired, how many attempts were
// rerouted after a failure, how many backends were quarantined, and
// how many batched requests succeeded.
type Stats struct {
	Backends    []BackendStats
	Fallbacks   uint64
	Hedges      uint64
	Batches     uint64
	Reroutes    uint64
	Quarantines uint64

	// Retry snapshots the client's retry-policy outcomes: attempts,
	// retries, give-ups, and backoff waits.
	Retry retry.Snapshot
}

// Stats returns a snapshot of the client's scheduling outcomes.
func (c *Client[U, R]) Stats() Stats {
	s := Stats{
		Fallbacks:   c.fallbackN.Load(),
		Hedges:      c.hedgeN.Load(),
		Batches:     c.batchN.Load(),
		Reroutes:    c.rerouteN.Load(),
		Quarantines: c.quarantineN.Load(),
		Retry:       c.rmetrics.Snapshot(),
	}
	for _, b := range c.view() {
		p50, p95, p99 := b.lat.Snapshot().Quantiles()
		s.Backends = append(s.Backends, BackendStats{
			Addr:     b.addr,
			Units:    b.units.Load(),
			Failures: b.failures.Load(),
			Dead:     b.dead.Load(),
			InFlight: b.inflight.Load(),
			P50:      time.Duration(p50),
			P95:      time.Duration(p95),
			P99:      time.Duration(p99),
		})
	}
	return s
}
