package serve

import (
	"hash/fnv"
	"sync"
	"time"

	"ccl/internal/cclerr"
)

// TenantConfig is one tenant's admission envelope.
type TenantConfig struct {
	// RatePerSec refills the tenant's token bucket; each admitted
	// request costs one token. Zero or negative disables rate
	// limiting for the tenant.
	RatePerSec float64
	// Burst caps the bucket (and is its starting fill). Zero means 1.
	Burst int
	// MaxActive bounds the tenant's admitted-but-unfinished requests
	// (queued + running). Zero means 4.
	MaxActive int
	// BudgetBytes is the default per-request simulated-memory budget
	// for specs that do not set one; zero means unbudgeted.
	BudgetBytes int64
}

// withDefaults fills the zero-value knobs.
func (c TenantConfig) withDefaults() TenantConfig {
	if c.Burst <= 0 {
		c.Burst = 1
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 4
	}
	return c
}

// tenant resolves the envelope a tenant runs under: its Tenants
// entry when it has one, else DefaultTenant, zero-value knobs filled.
// The registry and ReferenceResult both resolve through it, so a
// served request and its reference run share one budget.
func (c Config) tenant(name string) TenantConfig {
	tc, ok := c.Tenants[name]
	if !ok {
		tc = c.DefaultTenant
	}
	return tc.withDefaults()
}

// tenantState is the registry's live record for one tenant: a token
// bucket (lazily refilled on each admission attempt) plus the active
// request count the bounded queue enforces.
type tenantState struct {
	mu     sync.Mutex
	cfg    TenantConfig
	tokens float64
	last   time.Time
	active int
}

// admit charges one token and one active slot, reporting a typed
// rejection and the HTTP status it maps to. now drives the refill so
// tests can feed a manual clock.
func (t *tenantState) admit(now time.Time) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.RatePerSec > 0 {
		if t.last.IsZero() {
			t.tokens = float64(t.cfg.Burst)
		} else if dt := now.Sub(t.last).Seconds(); dt > 0 {
			t.tokens += dt * t.cfg.RatePerSec
			if max := float64(t.cfg.Burst); t.tokens > max {
				t.tokens = max
			}
		}
		t.last = now
		if t.tokens < 1 {
			return 429, cclerr.Errorf(cclerr.ErrOverloaded,
				"serve: tenant over its %.3g req/s rate", t.cfg.RatePerSec)
		}
		t.tokens--
	}
	if t.active >= t.cfg.MaxActive {
		// Refund the token: the request was never queued.
		if t.cfg.RatePerSec > 0 {
			t.tokens++
		}
		return 503, cclerr.Errorf(cclerr.ErrOverloaded,
			"serve: tenant queue full (%d active, max %d)", t.active, t.cfg.MaxActive)
	}
	t.active++
	return 0, nil
}

// release returns an admitted request's active slot.
func (t *tenantState) release() {
	t.mu.Lock()
	t.active--
	t.mu.Unlock()
}

// tenants is the registry: per-tenant state created on first sight
// from the tenant's resolved config.
type tenants struct {
	mu    sync.Mutex
	cfg   Config
	state map[string]*tenantState
}

func newTenants(cfg Config) *tenants {
	return &tenants{cfg: cfg, state: map[string]*tenantState{}}
}

// get returns (creating if needed) the tenant's state.
func (ts *tenants) get(name string) *tenantState {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	st, ok := ts.state[name]
	if !ok {
		st = &tenantState{cfg: ts.cfg.tenant(name)}
		ts.state[name] = st
	}
	return st
}

// shardOf maps a tenant to a worker shard. The hash is stable across
// processes so a tenant always lands on the same shard of a given
// fleet size — the isolation that keeps one tenant's queue from
// starving every shard at once.
func shardOf(tenant string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return int(h.Sum32() % uint32(shards))
}
