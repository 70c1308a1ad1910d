// Package datagen provides the synthetic workloads of the reproduction.
//
// The paper evaluates on two real datasets that are not redistributable:
// the San Francisco cab trace (~530 taxis, 24 days, 11M GPS records) and a
// Foursquare+Twitter check-in crawl (~470k users, ~5M records, 26 days).
// This package builds the closest synthetic equivalents (see EXPERIMENTS.md
// "Where this reproduction departs"):
//
//   - Cab: taxis moving between random waypoints over an SF-like street
//     area at bounded speed, emitting records at Poisson times. Dense
//     per-entity histories, one metro area, heavy spatial collision —
//     exactly the properties the Cab experiments exercise.
//   - SM: users with home cities and power-law POI revisit habits emitting
//     sparse check-ins across the globe — low record counts, low
//     spatio-temporal skew, the properties the SM experiments exercise.
//
// Sample implements the paper's workload knobs (Sec. 5.1): two possibly
// overlapping entity subsets controlled by the entity intersection ratio,
// per-dataset record downsampling by the record inclusion probability,
// anonymized per-dataset ids, a ground-truth map for evaluation, and the
// ≥5-records entity filter.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"slim/internal/geo"
	"slim/internal/model"
)

const (
	kmPerDegLat = 111.32
	secondsDay  = 86400
)

// CabConfig parameterizes the taxi-trace generator.
type CabConfig struct {
	NumTaxis int
	Days     int
	// MeanRecordIntervalSec is the average seconds between GPS records of
	// one taxi (the real trace averages ~60s; defaults to 180).
	MeanRecordIntervalSec float64
	// Seed drives all randomness; equal configs generate equal datasets.
	Seed int64
	// StartUnix is the trace start time (defaults to 2008-05-17, the real
	// trace's start).
	StartUnix int64
}

func (c *CabConfig) defaults() {
	if c.NumTaxis == 0 {
		c.NumTaxis = 530
	}
	if c.Days == 0 {
		c.Days = 24
	}
	if c.MeanRecordIntervalSec == 0 {
		c.MeanRecordIntervalSec = 180
	}
	if c.StartUnix == 0 {
		c.StartUnix = 1211004000 // 2008-05-17
	}
}

// Cab generates the synthetic San Francisco taxi trace.
func Cab(cfg CabConfig) model.Dataset {
	cfg.defaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	d := model.Dataset{Name: "cab"}

	// Bay-Area-like service area (~65km x 55km): the real trace includes
	// airport and peninsula trips, which is what makes same-window alibis
	// (pairs farther apart than the ~30km runaway distance) possible.
	const latLo, latHi = 37.35, 37.93
	const lngLo, lngHi = -122.70, -122.05
	horizon := int64(cfg.Days) * secondsDay
	// A taxi's records are a renewal count over the horizon with gaps of at
	// least a second: about horizon / interval of them, Poisson spread.
	perTaxi := float64(horizon) / max(cfg.MeanRecordIntervalSec, 1)
	d.Records = make([]model.Record, 0, reserve(cfg.NumTaxis, perTaxi, perTaxi))

	for taxi := 0; taxi < cfg.NumTaxis; taxi++ {
		id := model.EntityID(fmt.Sprintf("cab-%04d", taxi))
		// Real drivers favor habitual zones (home stand, airport, favorite
		// neighborhoods); give each taxi anchor zones so fine-grained
		// dominating cells carry identity, as they do in the real trace.
		type anchor struct{ lat, lng float64 }
		anchors := make([]anchor, 3)
		for a := range anchors {
			anchors[a] = anchor{
				lat: latLo + r.Float64()*(latHi-latLo),
				lng: lngLo + r.Float64()*(lngHi-lngLo),
			}
		}
		pickWaypoint := func() (float64, float64) {
			if r.Float64() < 0.75 {
				a := anchors[r.Intn(len(anchors))]
				// ~1.5 km scatter around the anchor.
				return mathClamp(a.lat+r.NormFloat64()*0.013, latLo, latHi),
					mathClamp(a.lng+r.NormFloat64()*0.017, lngLo, lngHi)
			}
			return latLo + r.Float64()*(latHi-latLo), lngLo + r.Float64()*(lngHi-lngLo)
		}
		// Position and target in degrees.
		lat, lng := pickWaypoint()
		tgtLat, tgtLng := pickWaypoint()
		// City driving speed: 0.2 - 0.8 km/min.
		speedKmMin := 0.2 + 0.6*r.Float64()

		var t float64
		for t < float64(horizon) {
			dt := r.ExpFloat64() * cfg.MeanRecordIntervalSec
			if dt < 1 {
				dt = 1
			}
			t += dt
			if t >= float64(horizon) {
				break
			}
			// Advance toward the waypoint by speed * dt.
			moveKm := speedKmMin * dt / 60
			kmPerDegLng := kmPerDegLat * math.Cos(lat*math.Pi/180)
			dLatKm := (tgtLat - lat) * kmPerDegLat
			dLngKm := (tgtLng - lng) * kmPerDegLng
			legKm := math.Hypot(dLatKm, dLngKm)
			if legKm <= moveKm {
				// Arrived: new waypoint, new speed.
				lat, lng = tgtLat, tgtLng
				tgtLat, tgtLng = pickWaypoint()
				speedKmMin = 0.2 + 0.6*r.Float64()
			} else {
				frac := moveKm / legKm
				lat += (tgtLat - lat) * frac
				lng += (tgtLng - lng) * frac
			}
			// GPS noise ~30m.
			nLat := lat + r.NormFloat64()*0.0003
			nLng := lng + r.NormFloat64()*0.0003
			d.Records = append(d.Records, model.Record{
				Entity: id,
				LatLng: geo.LatLngFromDegrees(nLat, nLng),
				Unix:   cfg.StartUnix + int64(t),
			})
		}
	}
	return d
}

// city is a world metro center for the SM generator.
type city struct {
	name     string
	lat, lng float64
}

var worldCities = []city{
	{"new-york", 40.7128, -74.0060},
	{"london", 51.5074, -0.1278},
	{"tokyo", 35.6762, 139.6503},
	{"san-francisco", 37.7749, -122.4194},
	{"paris", 48.8566, 2.3522},
	{"istanbul", 41.0082, 28.9784},
	{"sao-paulo", -23.5505, -46.6333},
	{"jakarta", -6.2088, 106.8456},
	{"lagos", 6.5244, 3.3792},
	{"mumbai", 19.0760, 72.8777},
	{"seoul", 37.5665, 126.9780},
	{"mexico-city", 19.4326, -99.1332},
	{"sydney", -33.8688, 151.2093},
	{"moscow", 55.7558, 37.6173},
	{"cairo", 30.0444, 31.2357},
	{"berlin", 52.5200, 13.4050},
	{"toronto", 43.6532, -79.3832},
	{"singapore", 1.3521, 103.8198},
	{"ankara", 39.9334, 32.8597},
	{"chicago", 41.8781, -87.6298},
}

// SMConfig parameterizes the social-media check-in generator.
type SMConfig struct {
	NumUsers int
	Days     int
	// AvgRecords is the mean number of check-ins per user (the real SM
	// data averages ~12 over 26 days).
	AvgRecords float64
	// POIsPerUser is the size of each user's habitual location set.
	POIsPerUser int
	Seed        int64
	StartUnix   int64
}

func (c *SMConfig) defaults() {
	if c.NumUsers == 0 {
		c.NumUsers = 30000
	}
	if c.Days == 0 {
		c.Days = 26
	}
	if c.AvgRecords == 0 {
		c.AvgRecords = 24
	}
	if c.POIsPerUser == 0 {
		c.POIsPerUser = 8
	}
	if c.StartUnix == 0 {
		c.StartUnix = 1507075200 // 2017-10-04
	}
}

// SM generates the synthetic social-media check-in stream. Note AvgRecords
// is the density of the *ground* stream; the paper's per-service densities
// arise from sampling it with the record inclusion probability.
func SM(cfg SMConfig) model.Dataset {
	cfg.defaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	d := model.Dataset{Name: "sm"}
	// A user's count is max(1, Poisson(AvgRecords)): mean λ + e^-λ,
	// variance about λ.
	lambda := cfg.AvgRecords
	d.Records = make([]model.Record, 0, reserve(cfg.NumUsers, lambda+math.Exp(-lambda), lambda))
	cityZipf, poiZipf := newZipfTable(len(worldCities)), newZipfTable(cfg.POIsPerUser)
	type poi struct{ lat, lng float64 }
	pois := make([]poi, cfg.POIsPerUser)
	var times []int64

	for u := 0; u < cfg.NumUsers; u++ {
		id := model.EntityID(fmt.Sprintf("sm-%06d", u))
		// Home city: zipf-ish preference for bigger indexes early.
		home := worldCities[cityZipf.draw(r)]
		// Habitual POIs scattered within ~12 km of the center.
		for p := range pois {
			pois[p] = poi{
				lat: home.lat + r.NormFloat64()*0.05,
				lng: home.lng + r.NormFloat64()*0.05/math.Max(0.2, math.Cos(home.lat*math.Pi/180)),
			}
		}
		// Check-in count ~ Poisson(AvgRecords), at least 1.
		n := poisson(r, cfg.AvgRecords)
		if n < 1 {
			n = 1
		}
		times = slices.Grow(times[:0], n)[:n]
		for k := range times {
			day := int64(r.Intn(cfg.Days))
			// Daytime bias: 08:00-23:00.
			sec := int64(8*3600 + r.Intn(15*3600))
			times[k] = cfg.StartUnix + day*secondsDay + sec
		}
		slices.Sort(times)
		for _, ts := range times {
			p := pois[poiZipf.draw(r)]
			d.Records = append(d.Records, model.Record{
				Entity: id,
				LatLng: geo.LatLngFromDegrees(
					p.lat+r.NormFloat64()*0.0005,
					p.lng+r.NormFloat64()*0.0005),
				Unix: ts + int64(r.Intn(60)),
			})
		}
	}
	return d
}

func mathClamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// reserve is a record capacity n independent counts of the given mean and
// variance overrun with negligible probability: their total's mean plus
// four standard deviations (none for a degenerate config). An overrun only
// costs append a grow.
func reserve(n int, mean, variance float64) int {
	c := float64(n)*mean + 4*math.Sqrt(float64(n)*variance)
	if !(c > 0) {
		return 0
	}
	return int(math.Ceil(c))
}

// zipfTable holds the running sums 1/1 + … + 1/i, i = 1 … n, of a zipf
// draw over [0, n), added in that order.
type zipfTable []float64

// newZipfTable builds the table of a draw over [0, n); n ≤ 1 needs none.
func newZipfTable(n int) zipfTable {
	if n <= 1 {
		return nil
	}
	t := make(zipfTable, n)
	var acc float64
	for i := 1; i <= n; i++ {
		acc += 1 / float64(i)
		t[i-1] = acc
	}
	return t
}

// draw returns an index in [0, n) with probability ∝ 1/(index+1): the
// first whose running sum reaches a uniform draw scaled by the total. It
// takes one r.Float64 when n > 1 and none otherwise.
func (t zipfTable) draw(r *rand.Rand) int {
	if len(t) == 0 {
		return 0
	}
	i, _ := slices.BinarySearch(t, r.Float64()*t[len(t)-1])
	return min(i, len(t)-1)
}

// poisson draws from a Poisson distribution (Knuth for small λ, normal
// approximation for large).
func poisson(r *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 50 {
		v := lambda + math.Sqrt(lambda)*r.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(math.Round(v))
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
