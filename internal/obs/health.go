package obs

import (
	"sync"
	"time"
)

// Health tracks one failure domain's two-state machine
// (healthy ⇄ degraded) and exports it as the slim_health_state gauge
// (1 = healthy, 0 = degraded, labelled by domain). Degrade/Recover are
// idempotent; the first Degrade of an episode records the cause and
// since-when that /healthz reports.
//
// All methods are safe for concurrent use.
type Health struct {
	mu    sync.Mutex
	state HealthState
	cause string
	since time.Time
}

// HealthState is one domain's state.
type HealthState int

const (
	// Healthy is the normal serving state.
	Healthy HealthState = iota
	// Degraded means the domain's write path is down and being repaired;
	// reads keep serving and writers get 503 + Retry-After.
	Degraded
)

// String returns the state's /healthz wire name.
func (s HealthState) String() string {
	if s == Degraded {
		return "degraded"
	}
	return "healthy"
}

// NewHealth builds a healthy tracker for domain and registers its
// slim_health_state gauge on reg (nil reg = untracked, still usable).
func NewHealth(reg *Registry, domain string) *Health {
	h := &Health{state: Healthy}
	if reg != nil {
		reg.GaugeFunc("slim_health_state",
			"Domain health: 1 healthy, 0 degraded (write path down, repair in progress).",
			func() float64 {
				if st, _, _ := h.State(); st == Degraded {
					return 0
				}
				return 1
			}, L("domain", domain))
	}
	return h
}

// Degrade flips the domain to degraded. Only the first call of an
// episode records cause and since; later calls are no-ops until
// Recover. It reports whether this call started the episode.
func (h *Health) Degrade(cause string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == Degraded {
		return false
	}
	h.state = Degraded
	h.cause = cause
	h.since = time.Now()
	return true
}

// Recover flips the domain back to healthy, reporting whether a
// degraded episode actually ended.
func (h *Health) Recover() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == Healthy {
		return false
	}
	h.state = Healthy
	h.cause = ""
	h.since = time.Time{}
	return true
}

// State returns the current state plus the active episode's cause and
// start time (zero values when healthy).
func (h *Health) State() (state HealthState, cause string, since time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state, h.cause, h.since
}
