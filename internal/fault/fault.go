// Package fault is slimd's deterministic fault-injection layer: named
// injection points ("sites") scattered through the storage, engine, and
// ingest code hit an Injector that is silent in production (a nil
// Injector costs one pointer comparison) and, when armed, injects an
// error, a latency stall, or a panic on a precisely scheduled subset of
// the hits.
//
// A site is a stable string like "fs.sync" or "engine.rescore". Arming
// binds a Rule to a site; the rule's trigger fields pick WHICH hits
// fire:
//
//	After n  — the first n hits pass through untouched
//	Every k  — of the remaining hits, fire every k-th (1 = all)
//	Count c  — fire at most c times, then the rule goes inert (0 = ∞)
//
// and its action fields pick WHAT happens on a fired hit, applied in
// order: Delay sleeps, then Panic panics, then Err is returned. Rules
// are deterministic functions of the hit index, so a fault schedule
// replays identically under the same call sequence — the property the
// chaos suite's fixed seeds rely on.
//
// All methods are safe for concurrent use and safe on a nil *Injector.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the error injected by a Rule with Err == nil; tests
// and callers can errors.Is against it to distinguish injected faults
// from organic ones.
var ErrInjected = errors.New("fault: injected error")

// Rule describes one armed fault: when it fires (After/Every/Count over
// the site's hit sequence) and what it does (Delay, then Panic, then
// Err). The zero action with a match still counts as fired but injects
// ErrInjected, so an armed rule is never silently a no-op.
type Rule struct {
	// Err is returned from Hit on a fired match. Nil means ErrInjected
	// unless Panic or Delay is set (a pure delay rule returns nil).
	Err error
	// Panic, when non-empty, panics with this value on a fired match.
	Panic string
	// Delay, when positive, sleeps before returning on a fired match.
	Delay time.Duration

	// After skips the first After hits entirely.
	After int
	// Every fires every Every-th eligible hit (0 and 1 both mean every
	// eligible hit).
	Every int
	// Count caps how many times the rule fires (0 = unlimited).
	Count int
}

// armed is one site's live rule plus its hit bookkeeping.
type armed struct {
	rule  Rule
	hits  int // Hit calls seen since arming
	fired int // times the rule fired
}

// Injector is a set of armed sites. The zero value and nil are both
// valid, never-firing injectors.
type Injector struct {
	mu    sync.Mutex
	sites map[string]*armed
	seen  map[string]int // hit counts for every site, armed or not
}

// New returns an empty injector.
func New() *Injector {
	return &Injector{sites: make(map[string]*armed), seen: make(map[string]int)}
}

// Arm binds rule to site, replacing any previous rule and resetting the
// site's trigger bookkeeping.
func (in *Injector) Arm(site string, rule Rule) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.sites == nil {
		in.sites = make(map[string]*armed)
	}
	in.sites[site] = &armed{rule: rule}
}

// DisarmAll removes every rule — the chaos suite's "heal" step.
func (in *Injector) DisarmAll() {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sites = make(map[string]*armed)
}

// Hit reports one execution of site. It returns the armed rule's error
// on a fired match (sleeping and panicking first when the rule says
// so), and nil otherwise. Safe — and one comparison cheap — on a nil
// injector, so injection points need no build tags.
func (in *Injector) Hit(site string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	if in.seen == nil {
		in.seen = make(map[string]int)
	}
	in.seen[site]++
	a := in.sites[site]
	if a == nil {
		in.mu.Unlock()
		return nil
	}
	a.hits++
	fire := false
	if idx := a.hits - a.rule.After; idx >= 1 {
		every := a.rule.Every
		if every <= 1 {
			every = 1
		}
		if idx%every == 0 && (a.rule.Count == 0 || a.fired < a.rule.Count) {
			a.fired++
			fire = true
		}
	}
	rule := a.rule
	in.mu.Unlock()
	if !fire {
		return nil
	}
	if rule.Delay > 0 {
		time.Sleep(rule.Delay)
	}
	if rule.Panic != "" {
		panic("fault: injected panic: " + rule.Panic)
	}
	if rule.Err != nil {
		return rule.Err
	}
	if rule.Delay > 0 {
		return nil // pure latency rule
	}
	return ErrInjected
}

// Hits returns how many times site has been hit since the injector was
// built (armed or not) — the call-index oracle the FS failure sweeps
// use to enumerate every injectable call.
func (in *Injector) Hits(site string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seen[site]
}

// Fired returns how many times site's current rule has fired (0 when
// the site is not armed).
func (in *Injector) Fired(site string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if a := in.sites[site]; a != nil {
		return a.fired
	}
	return 0
}

// ArmSpec arms one textual fault spec — the slimd -fault flag's format:
//
//	site:action[:trigger]...
//
// where action is "error" (inject ErrInjected), "panic[=msg]", or
// "delay=DURATION", and each trigger is "after=N", "every=N", or
// "count=N". Actions and triggers may be combined in any order after
// the site. Examples:
//
//	fs.sync:error:after=5:count=2
//	engine.rescore:panic:count=1
//	fs.write:delay=50ms:every=10
func (in *Injector) ArmSpec(spec string) error {
	site, rule, err := ParseSpec(spec)
	if err != nil {
		return err
	}
	in.Arm(site, rule)
	return nil
}

// ParseSpec parses one -fault spec (see ArmSpec). "panic=" with no message
// panics with the default one, and a delay must be positive, so every
// action it accepts is a non-zero field of the rule. An error quotes at
// most errSpecBytes bytes of the spec and of the field it names.
func ParseSpec(spec string) (site string, rule Rule, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || parts[0] == "" {
		return "", Rule{}, fmt.Errorf("fault: bad spec %q: want site:action[:trigger]...", clip(spec))
	}
	site = parts[0]
	action := false
	for _, p := range parts[1:] {
		key, val, hasVal := strings.Cut(p, "=")
		switch key {
		case "error", "err":
			rule.Err = ErrInjected
			action = true
		case "panic":
			rule.Panic = "armed by spec"
			if val != "" {
				rule.Panic = val
			}
			action = true
		case "delay":
			if !hasVal {
				return "", Rule{}, fmt.Errorf("fault: spec %q: delay needs a duration", clip(spec))
			}
			d, derr := time.ParseDuration(val)
			if derr != nil || d <= 0 {
				return "", Rule{}, fmt.Errorf("fault: spec %q: bad delay %q", clip(spec), clip(val))
			}
			rule.Delay = d
			action = true
		case "after", "every", "count":
			if !hasVal {
				return "", Rule{}, fmt.Errorf("fault: spec %q: %s needs a number", clip(spec), key)
			}
			n, nerr := strconv.Atoi(val)
			if nerr != nil || n < 0 {
				return "", Rule{}, fmt.Errorf("fault: spec %q: bad %s %q", clip(spec), key, clip(val))
			}
			switch key {
			case "after":
				rule.After = n
			case "every":
				rule.Every = n
			case "count":
				rule.Count = n
			}
		default:
			return "", Rule{}, fmt.Errorf("fault: spec %q: unknown field %q", clip(spec), clip(p))
		}
	}
	if !action {
		return "", Rule{}, fmt.Errorf("fault: spec %q: no action (error, panic, or delay)", clip(spec))
	}
	return site, rule, nil
}

// errSpecBytes bounds how much of a spec, or of one of its fields, an
// error quotes, so a message stays short however long the spec is.
const errSpecBytes = 64

// clip cuts s to errSpecBytes bytes, marking a cut with "...".
func clip(s string) string {
	if len(s) > errSpecBytes {
		return s[:errSpecBytes] + "..."
	}
	return s
}
