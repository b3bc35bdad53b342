// Package repro reproduces Patrick J. McGuire's "A Measurement-Based
// Study of Concurrency in a Multiprocessor" (University of Illinois /
// NASA CR-180318, 1987): a simulated Alliant FX/8 Computational
// Cluster (internal/fx8), a Concentrix-like operating system layer
// (internal/concentrix), a synthetic CSRD-style production workload
// (internal/workload), DAS 9100-class hardware monitoring
// (internal/monitor), the study's concurrency-measurement methodology
// (internal/core), and SAS-style analysis rendering (internal/sas,
// internal/experiments).
//
// Campaigns and sweeps execute on the shared session-execution engine
// (internal/engine): independent sessions — each booting its own
// machine, OS and workload from a derived seed — fan out over a
// bounded worker pool and are reduced in session order, so results
// are identical for every worker count.  core.RunStudyWorkers and the
// experiments Sweep*Workers variants expose the knob; the cmd tools
// surface it as -workers (default: one worker per CPU).
//
// The session lifecycle is allocation-free after warm-up: each worker
// rebuilds its session in place on a pooled core.SessionArena —
// Reset()-style reuse of the cluster, OS, analyzer and workload
// generator, with concurrent-loop bodies regenerated into per-CE
// buffers (fx8.Loop.BodyInto) — rather than booting fresh state.
// Reuse is bit-exact, and removing the shared allocator/GC traffic is
// what lets the embarrassingly-parallel campaign actually scale with
// workers.  engine.MapWith threads explicit per-worker state through
// the pool (one state per goroutine, never shared; see the engine
// package docs for the contract).
//
// The cmd tools' local -cache path runs campaigns through a two-tier
// cache (core.StudyCache): an in-process memo (bounded, FIFO-evicted)
// in front of an optional content-addressed on-disk store
// (internal/store), in front of the compute path, with concurrent
// Gets for one configuration singleflighted down to one campaign run.
// Store entries are keyed by a stable hash of the canonically encoded
// StudyConfig, written atomically with a versioned, checksummed
// header, and recomputed when corrupt or format-incompatible.  The
// daemon does not use StudyCache: it runs every campaign as an
// internal/coord job over the same store directory, and a job whose
// study or sweep entry the CLI already stored finishes without
// computing a unit.
//
// Where a unit of work executes is abstracted behind engine.Runner
// (unit in, result out): engine.Local computes sessions and sweep
// points in-process, and the internal/remote client shards them
// across a fleet of fx8d backends via POST /v1/run/session and POST
// /v1/run/sweep — rerouting failed units, hedging slow ones, and
// falling back to local compute when no backend answers.  Large
// campaigns batch contiguous session units through POST
// /v1/run/sessions (engine.BatchRunner); the engine caps batch size
// so batching never starves the worker pool, and a backend without
// the endpoint degrades quietly to per-unit requests.  Results are
// reassembled in unit order, so sharded output — batched or not — is
// byte-identical to local output for every backend count; cmd/sweep,
// cmd/measure and cmd/figures surface the fleet as -backends
// host:port,....  The in-process memo behind the caches (engine.Memo)
// never evicts an in-flight entry, preserving singleflight under cap
// pressure.
//
// The fx8d daemon (cmd/fx8d, internal/service) serves the campaign's
// artefacts over HTTP: the study summary, every table and figure, and
// the parameter sweeps as addressable JSON resources, each a view over
// a resumable campaign job (internal/coord, also exposed as /v1/jobs),
// plus per-unit and batched execution endpoints for sharding, one SSE
// stream of job progress (/v1/progress is the study job's view),
// per-endpoint latency and cache hit-rate counters, bounded request
// admission with a bounded wait queue (excess load shed as 429 +
// Retry-After), strong ETags with If-None-Match revalidation on
// artefact endpoints, and graceful shutdown.  cmd/loadgen drives the
// daemon with deterministic open-loop traffic — steady or bursty
// Poisson arrivals over artefact, unit and mixed request mixes — and
// records the resulting latency/throughput/shed profile as a perf set
// for the CI bench gate (make bench-load).
//
// The root package holds the benchmark harness: one benchmark per
// table and figure of the paper's evaluation, plus ablation benchmarks
// for the design choices documented in DESIGN.md.
//
// # Benchmarking
//
// The session hot path is benchmarked at every layer: the fx8 cluster
// step loop, the shared cache and memory buses, the Concentrix
// scheduling tick, the monitor's sampling loop, both session kinds,
// the sweep point, and the daemon's warm /v1/study serving path.
// make bench records one parsed result set per layer
// (BENCH_<layer>.json) through internal/perf, and cmd/benchdiff
// parses, summarizes and diffs those sets against a regression
// threshold — the same code path the CI bench-gate job uses to
// compare a pull request against its merge base and fail the build
// on a hot-path regression.  Optimizations are pinned behavior-
// preserving by the golden paper-scale test and byte-identical
// canonical study output.
package repro
