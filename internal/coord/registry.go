package coord

import (
	"sort"
	"sync"
	"time"
)

// Heartbeat TTL bounds: a worker that stops heartbeating is dropped
// from Snapshot once its TTL lapses, so the clamp keeps one stuck
// client from registering itself immortal (or flapping every
// millisecond).
const (
	DefaultTTL = 30 * time.Second
	MinTTL     = time.Second
	MaxTTL     = 10 * time.Minute
)

// Member is one registered backend and its heartbeat deadline.
type Member struct {
	Addr    string    `json:"addr"`
	Expires time.Time `json:"expires"`
}

// Registry tracks dynamic fleet membership: backends announce
// themselves with POST /v1/backends/register and keep their entry
// alive by re-registering before the TTL lapses.  Snapshot returns
// the live members sorted by address, which makes Registry a
// remote.BackendSource: the fleet client the coordinator runs its
// jobs on follows joins and leaves without reconstruction.  A lapsed
// member is dropped lazily on the next read; there is no reaper
// goroutine.
type Registry struct {
	mu      sync.Mutex
	members map[string]time.Time // addr -> heartbeat deadline
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{members: make(map[string]time.Time)}
}

// Register records a heartbeat for addr, returning the entry's new
// deadline.  ttl <= 0 means DefaultTTL; out-of-range TTLs are clamped
// to [MinTTL, MaxTTL].
func (r *Registry) Register(addr string, ttl time.Duration) time.Time {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	if ttl < MinTTL {
		ttl = MinTTL
	}
	if ttl > MaxTTL {
		ttl = MaxTTL
	}
	deadline := time.Now().Add(ttl)
	r.mu.Lock()
	r.members[addr] = deadline
	r.mu.Unlock()
	return deadline
}

// Deregister drops addr immediately (a worker shutting down cleanly
// need not wait out its TTL).
func (r *Registry) Deregister(addr string) {
	r.mu.Lock()
	delete(r.members, addr)
	r.mu.Unlock()
}

// Snapshot returns the live member addresses, sorted, dropping lapsed
// entries as a side effect.  It implements remote.BackendSource.
func (r *Registry) Snapshot() []string {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for addr, deadline := range r.members {
		if now.After(deadline) {
			delete(r.members, addr)
			continue
		}
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// Entries returns the live members with their deadlines, sorted by
// address — the GET /v1/backends listing.
func (r *Registry) Entries() []Member {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Member
	for addr, deadline := range r.members {
		if now.After(deadline) {
			delete(r.members, addr)
			continue
		}
		out = append(out, Member{Addr: addr, Expires: deadline})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
