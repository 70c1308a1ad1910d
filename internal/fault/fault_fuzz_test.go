package fault

import (
	"strconv"
	"strings"
	"testing"

	"slim/internal/testenv"
)

// canonicalSpec spells a parsed rule the one way this test calls
// canonical: the site, then each non-zero field in declaration order.
func canonicalSpec(site string, r Rule) string {
	spec := site
	if r.Err != nil {
		spec += ":error"
	}
	if r.Panic != "" {
		spec += ":panic=" + r.Panic
	}
	if r.Delay > 0 {
		spec += ":delay=" + r.Delay.String()
	}
	for _, f := range []struct {
		key string
		n   int
	}{{"after", r.After}, {"every", r.Every}, {"count", r.Count}} {
		if f.n != 0 {
			spec += ":" + f.key + "=" + strconv.Itoa(f.n)
		}
	}
	return spec
}

// maxSpecErrBytes bounds a rejected spec's error message: its fixed text
// plus the spec and one field, each quoted from at most errSpecBytes
// bytes (a quoted byte takes up to four).
const maxSpecErrBytes = 128 + 2*4*(errSpecBytes+3)

// parseSpecFixedBytes and parseSpecBytesPerInputByte bound what ParseSpec
// allocates for a spec of n bytes: the split parts (a string header per
// colon) and one error message, whose formatting buffer grows to twice a
// message of up to maxSpecErrBytes.
const (
	parseSpecFixedBytes        = 4 << 10
	parseSpecBytesPerInputByte = 16
)

// FuzzParseSpec holds the -fault grammar to its oracles: no panic; an
// accepted spec, spelled again canonically from its rule, parses and arms
// to the same site and rule; a rejected one arms nothing and its error is
// short however long the spec is; and parsing allocates within a budget
// per input byte, least of three runs. Seeded with the documented
// examples, slimd's CLI test, one spec per storage failure site as the
// torn-write sweeps arm them, and the rejected specs of TestParseSpec.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"fs.sync:error:after=5:count=2",
		"engine.rescore:panic=kaboom:count=1",
		"engine.relink:panic=chaos:count=1",
		"fs.write:delay=50ms:every=10",
		"s:err:panic:delay=1h2m3.5s:after=0:every=1:count=0",
		"", "siteonly", ":error", "s:after=1", "s:delay", "s:delay=-1s", "s:delay=0",
		"s:bogus", "s:every=x", "s:error:after=-3", "s:panic=", "s:panic=:count=99999999999999999999",
	} {
		f.Add(spec)
	}
	for _, site := range []string{"close", "createtemp", "mkdirall", "openfile", "readdir", "readfile",
		"remove", "rename", "stat", "sync", "syncdir", "truncate", "write"} {
		f.Add("fs." + site + ":error:after=3:count=1")
	}
	f.Fuzz(func(t *testing.T, spec string) {
		site, rule, err := ParseSpec(spec)
		in := New()
		if armErr := in.ArmSpec(spec); (armErr == nil) != (err == nil) {
			t.Fatalf("ParseSpec(%q) says %v, ArmSpec %v", spec, err, armErr)
		}
		if err != nil {
			if len(in.sites) != 0 {
				t.Fatalf("rejected spec %q armed a site", spec)
			}
			if n := len(err.Error()); n > maxSpecErrBytes {
				t.Fatalf("a %d-byte spec's error is %d bytes long", len(spec), n)
			}
		} else {
			if a := in.sites[site]; a == nil || a.rule != rule || len(in.sites) != 1 {
				t.Fatalf("spec %q armed %v, parsed %q %+v", spec, in.sites, site, rule)
			}
			again := canonicalSpec(site, rule)
			site2, rule2, err2 := ParseSpec(again)
			if err2 != nil || site2 != site || rule2 != rule {
				t.Fatalf("spec %q parsed to %q %+v; its canonical spelling %q parses to %q %+v, %v",
					spec, site, rule, again, site2, rule2, err2)
			}
		}
		if testenv.RaceEnabled {
			return
		}
		budget := uint64(parseSpecFixedBytes + parseSpecBytesPerInputByte*len(spec))
		if got := testenv.LeastAllocated(func() { ParseSpec(spec) }); got > budget {
			t.Fatalf("ParseSpec allocated %d B on a %d-byte spec, budget %d", got, len(spec), budget)
		}
	})
}

// TestParseSpecErrorIsShort: a spec's error quotes at most errSpecBytes
// bytes of the spec and of the field it names, however long they are.
func TestParseSpecErrorIsShort(t *testing.T) {
	long := strings.Repeat("x", 1<<20)
	for _, spec := range []string{long, "s:" + long, "s:delay=" + long, "s:after=" + long, long + ":error:bogus"} {
		_, _, err := ParseSpec(spec)
		if err == nil || len(err.Error()) > maxSpecErrBytes {
			t.Fatalf("a %d-byte spec's error: %.200v", len(spec), err)
		}
	}
}
