package fault

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInjectorIsSilent(t *testing.T) {
	var in *Injector
	if err := in.Hit("anything"); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
	in.Arm("x", Rule{Err: ErrInjected}) // must not panic
	in.DisarmAll()
	if in.Hits("x") != 0 || in.Fired("x") != 0 {
		t.Fatal("nil injector reported state")
	}
}

func TestTriggersAfterEveryCount(t *testing.T) {
	in := New()
	// Skip 2, then fire every 3rd eligible hit, at most twice:
	// hits 1,2 pass (after); eligible indices 1.. map to hits 3,4,5,...
	// every=3 fires at eligible index 3,6 → hits 5 and 8.
	in.Arm("s", Rule{Err: ErrInjected, After: 2, Every: 3, Count: 2})
	var fired []int
	for i := 1; i <= 12; i++ {
		if err := in.Hit("s"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: wrong error %v", i, err)
			}
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 8 {
		t.Fatalf("fired at %v, want [5 8]", fired)
	}
	if in.Fired("s") != 2 || in.Hits("s") != 12 {
		t.Fatalf("fired=%d hits=%d, want 2/12", in.Fired("s"), in.Hits("s"))
	}
}

func TestDefaultActionIsErrInjected(t *testing.T) {
	in := New()
	in.Arm("s", Rule{Count: 1})
	if err := in.Hit("s"); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	if err := in.Hit("s"); err != nil {
		t.Fatalf("count=1 rule fired twice: %v", err)
	}
}

func TestPanicAction(t *testing.T) {
	in := New()
	in.Arm("s", Rule{Panic: "boom", Count: 1})
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "boom") {
			t.Fatalf("recovered %v, want injected panic", r)
		}
	}()
	_ = in.Hit("s")
	t.Fatal("unreachable: Hit should have panicked")
}

func TestDelayAction(t *testing.T) {
	in := New()
	in.Arm("s", Rule{Delay: 30 * time.Millisecond, Count: 1})
	start := time.Now()
	if err := in.Hit("s"); err != nil {
		t.Fatalf("pure delay rule returned error: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay rule slept %v, want >= 30ms", d)
	}
}

func TestHitCountsUnarmedSites(t *testing.T) {
	in := New()
	for i := 0; i < 3; i++ {
		if err := in.Hit("quiet"); err != nil {
			t.Fatal(err)
		}
	}
	if in.Hits("quiet") != 3 {
		t.Fatalf("hits = %d, want 3", in.Hits("quiet"))
	}
}

func TestDisarmAndRearmResetsTriggers(t *testing.T) {
	in := New()
	in.Arm("s", Rule{Err: ErrInjected, After: 1})
	_ = in.Hit("s") // consumed by After
	in.Arm("s", Rule{Err: ErrInjected, After: 1})
	if err := in.Hit("s"); err != nil {
		t.Fatal("re-arming should reset After bookkeeping")
	}
	if err := in.Hit("s"); !errors.Is(err, ErrInjected) {
		t.Fatal("rule should fire on second hit after re-arm")
	}
	in.DisarmAll()
	if err := in.Hit("s"); err != nil {
		t.Fatalf("disarmed site fired: %v", err)
	}
}

func TestConcurrentHits(t *testing.T) {
	in := New()
	in.Arm("s", Rule{Err: ErrInjected, Every: 2})
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				if err := in.Hit("s"); err != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if in.Hits("s") != 2000 {
		t.Fatalf("hits = %d, want 2000", in.Hits("s"))
	}
	if fired != 1000 || in.Fired("s") != 1000 {
		t.Fatalf("fired = %d (tracker %d), want 1000", fired, in.Fired("s"))
	}
}

func TestParseSpec(t *testing.T) {
	site, r, err := ParseSpec("fs.sync:error:after=5:count=2")
	if err != nil || site != "fs.sync" || !errors.Is(r.Err, ErrInjected) || r.After != 5 || r.Count != 2 {
		t.Fatalf("got %q %+v %v", site, r, err)
	}
	site, r, err = ParseSpec("engine.rescore:panic=kaboom:count=1")
	if err != nil || site != "engine.rescore" || r.Panic != "kaboom" || r.Count != 1 {
		t.Fatalf("got %q %+v %v", site, r, err)
	}
	// An empty message panics with the default one: the rule never
	// degrades to a plain error.
	if _, r, err = ParseSpec("s:panic="); err != nil || r.Panic != "armed by spec" {
		t.Fatalf("got %+v %v", r, err)
	}
	_, r, err = ParseSpec("fs.write:delay=50ms:every=10")
	if err != nil || r.Delay != 50*time.Millisecond || r.Every != 10 {
		t.Fatalf("got %+v %v", r, err)
	}
	for _, bad := range []string{
		"", "siteonly", ":error", "s:after=1", "s:delay", "s:delay=-1s", "s:delay=0",
		"s:bogus", "s:every=x", "s:error:after=-3",
	} {
		if _, _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted a bad spec", bad)
		}
	}
}

func TestArmSpec(t *testing.T) {
	in := New()
	if err := in.ArmSpec("s:error:count=1"); err != nil {
		t.Fatal(err)
	}
	if err := in.Hit("s"); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed spec did not fire: %v", err)
	}
	if err := in.ArmSpec("nonsense"); err == nil {
		t.Fatal("bad spec accepted")
	}
}
