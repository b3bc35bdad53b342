package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/store"
)

// studyNamespace versions the stored encoding of a Study.  Bump it
// whenever the Study schema changes incompatibly: old entries then
// miss cleanly and are recomputed.
const studyNamespace = "study/v1"

// EncodeStudy serializes a completed campaign for the on-disk store.
// The encoding is canonical — a given Study always encodes to the
// same bytes — so identical configurations produce identical entries
// regardless of which process computed them.
func EncodeStudy(st *Study) ([]byte, error) {
	data, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("core: encoding study: %w", err)
	}
	return data, nil
}

// DecodeStudy deserializes a stored campaign.
func DecodeStudy(data []byte) (*Study, error) {
	st := new(Study)
	if err := json.Unmarshal(data, st); err != nil {
		return nil, fmt.Errorf("core: decoding study: %w", err)
	}
	return st, nil
}

// StudyKey returns the content address of a campaign configuration in
// the store.
func StudyKey(cfg StudyConfig) (string, error) {
	return store.Key(studyNamespace, cfg)
}

// CacheStats snapshots a StudyCache's outcome counters.  MemoryHits
// counts Gets served from the in-process memo, including concurrent
// Gets that waited on an in-flight computation; DiskHits counts
// campaigns restored from the store; Computes counts campaigns
// actually run.
type CacheStats struct {
	MemoryHits  uint64
	DiskHits    uint64
	Computes    uint64
	StoreErrors uint64
}

// DefaultMemoEntries caps the in-process campaign memo.  Completed
// studies are large (every session's samples and raw trigger
// buffers), and a process legitimately works with only a handful of
// configurations — the quick and paper scales plus a few variants —
// so a small FIFO bound keeps the memo — and the coordinator's memo
// of done job results — from growing without bound in a long-lived
// daemon while never evicting in normal use.
const DefaultMemoEntries = 8

// StudyCache is the two-tier campaign cache: an in-process memo in
// front of an optional on-disk store, in front of the compute path
// (memory -> disk -> compute).  Concurrent Gets for the same
// configuration singleflight — exactly one goroutine probes the disk
// and, on a miss, runs the campaign; the rest block and share its
// result.  The zero value is ready to use as a memory-only cache.
type StudyCache struct {
	memo    engine.Memo[StudyConfig, *Study]
	runner  atomic.Pointer[StudyRunner]
	store   atomic.Pointer[store.Store]
	gets    atomic.Uint64
	disk    atomic.Uint64
	compute atomic.Uint64
	errors  atomic.Uint64
}

// DefaultStudyCache is the process-wide campaign cache used by
// CachedStudy and the cmd tools.  Its memo is bounded by
// DefaultMemoEntries.
var DefaultStudyCache = NewStudyCache()

// NewStudyCache returns a memory-only StudyCache with the default
// memo bound; attach a disk tier with SetStore.
func NewStudyCache() *StudyCache {
	c := &StudyCache{}
	c.memo.MaxEntries = DefaultMemoEntries
	return c
}

// SetStore attaches (or, with nil, detaches) the disk tier.  Attach
// before serving Gets: configurations already memoized in memory are
// not retroactively written to the store.
func (c *StudyCache) SetStore(s *store.Store) { c.store.Store(s) }

// Store returns the attached disk tier, or nil.
func (c *StudyCache) Store() *store.Store { return c.store.Load() }

// SetRunner installs (or, with nil, removes) the session runner the
// compute path executes campaign units on — the hook the cmd tools
// use to shard campaigns across fx8d backends (-backends).  Without
// one, sessions compute in-process on the engine's worker pool.
// Cache tiers are consulted before the runner, so memoized or stored
// campaigns never touch a backend.
func (c *StudyCache) SetRunner(r StudyRunner) {
	if r == nil {
		c.runner.Store(nil)
		return
	}
	c.runner.Store(&r)
}

// Stats returns a snapshot of the cache's outcome counters.
func (c *StudyCache) Stats() CacheStats {
	// Load gets last: every disk/compute increment is preceded by a
	// gets increment, so this ordering guarantees gets >= disk +
	// compute even while Gets are in flight (the subtraction cannot
	// underflow).
	disk, compute := c.disk.Load(), c.compute.Load()
	gets := c.gets.Load()
	memory := uint64(0)
	if gets > disk+compute {
		memory = gets - disk - compute
	}
	return CacheStats{
		MemoryHits:  memory,
		DiskHits:    disk,
		Computes:    compute,
		StoreErrors: c.errors.Load(),
	}
}

// Get returns the campaign for cfg through the tiers: the in-process
// memo, then the store, then RunStudyRunner with the given worker
// count.  Computed campaigns are written back to the store
// atomically; store defects (corrupt or version-mismatched entries)
// read as misses and are recomputed, and write failures are counted
// in Stats but never fail the Get — the computed Study is always
// returned.  The result is shared and must be treated as read-only.
func (c *StudyCache) Get(cfg StudyConfig, workers int) *Study {
	c.gets.Add(1)
	return c.memo.Get(cfg, func() *Study {
		if st, ok := c.load(cfg); ok {
			c.disk.Add(1)
			return st
		}
		c.compute.Add(1)
		runner := LocalStudyRunner()
		sharded := false
		if p := c.runner.Load(); p != nil {
			runner, sharded = *p, true
		}
		st, err := RunStudyRunner(context.Background(), cfg, workers, runner)
		if err != nil && sharded {
			// A sharded run can fail if a backend answers with a
			// well-formed but empty unit result (version skew, a
			// wrong service on the port).  The campaign must not be
			// lost to a defective fleet: recompute locally.
			st, err = RunStudyRunner(context.Background(), cfg, workers, LocalStudyRunner())
		}
		if err != nil {
			// Unreachable: the local runner executes units produced
			// by cfg.Units(), every one of which carries a spec.
			panic(fmt.Sprintf("core: campaign run failed: %v", err))
		}
		c.save(cfg, st)
		return st
	})
}

// Purge drops the in-process memo and, when a store is attached,
// removes its entries.
func (c *StudyCache) Purge() error {
	c.memo.Purge()
	if s := c.store.Load(); s != nil {
		return s.Purge()
	}
	return nil
}

// load probes the disk tier.
func (c *StudyCache) load(cfg StudyConfig) (*Study, bool) {
	s := c.store.Load()
	if s == nil {
		return nil, false
	}
	key, err := StudyKey(cfg)
	if err != nil {
		c.errors.Add(1)
		return nil, false
	}
	data, ok := s.Get(key)
	if !ok {
		return nil, false
	}
	st, err := DecodeStudy(data)
	if err != nil {
		// The entry passed its checksum but no longer decodes — a
		// schema drift the namespace version should have caught.
		// Treat as a miss and recompute.
		c.errors.Add(1)
		return nil, false
	}
	return st, true
}

// save writes a computed campaign back to the disk tier.
func (c *StudyCache) save(cfg StudyConfig, st *Study) {
	s := c.store.Load()
	if s == nil {
		return
	}
	key, err := StudyKey(cfg)
	if err != nil {
		c.errors.Add(1)
		return
	}
	data, err := EncodeStudy(st)
	if err != nil {
		c.errors.Add(1)
		return
	}
	if err := s.Put(key, data); err != nil {
		c.errors.Add(1)
	}
}

// EnsureStored writes cfg's campaign to the disk tier if a store is
// attached and the entry is absent — the write-through path for a
// campaign memoized before the store was attached.
func (c *StudyCache) EnsureStored(cfg StudyConfig, st *Study) {
	s := c.store.Load()
	if s == nil {
		return
	}
	key, err := StudyKey(cfg)
	if err != nil {
		c.errors.Add(1)
		return
	}
	if !s.Has(key) {
		c.save(cfg, st)
	}
}

// StudyAt returns the campaign for cfg using the two-tier cache
// rooted at cacheDir — the cmd tools' -cache flag.  An empty dir uses
// the process-wide memory-only DefaultStudyCache; otherwise the store
// is opened (created if needed) and attached to DefaultStudyCache, so
// every artefact generated by the process shares both tiers, and the
// campaign is guaranteed on disk when StudyAt returns.
func StudyAt(cacheDir string, cfg StudyConfig, workers int) (*Study, error) {
	if cacheDir != "" {
		if s := DefaultStudyCache.Store(); s == nil || s.Dir() != cacheDir {
			s, err := store.Open(cacheDir)
			if err != nil {
				return nil, err
			}
			DefaultStudyCache.SetStore(s)
		}
	}
	st := DefaultStudyCache.Get(cfg, workers)
	if cacheDir != "" {
		DefaultStudyCache.EnsureStored(cfg, st)
	}
	return st, nil
}

// StudyAtRunner is StudyAt computing through the given session runner
// — the cmd tools' -backends path.  The runner is installed on the
// process-wide DefaultStudyCache (a CLI process decides its execution
// mode once, at flag-parse time); nil restores in-process compute.
// Cache tiers are unaffected: memoized or stored campaigns are served
// without consulting the runner.
func StudyAtRunner(cacheDir string, cfg StudyConfig, workers int, r StudyRunner) (*Study, error) {
	DefaultStudyCache.SetRunner(r)
	return StudyAt(cacheDir, cfg, workers)
}
