package geo

import (
	"math"
	"math/rand"
	"testing"
)

// cellIDFromFaceIJBits is cellIDFromFaceIJ one level at a time, 30 steps
// of ijToPos: the oracle of the table-driven kernel.
func cellIDFromFaceIJBits(face, i, j int) CellID {
	orientation := face & swapMask
	var pos uint64
	for k := MaxLevel - 1; k >= 0; k-- {
		ij := ((i>>uint(k))&1)<<1 | (j>>uint(k))&1
		p := ijToPos[orientation][ij]
		pos = pos<<2 | uint64(p)
		orientation ^= posToOrientation[p]
	}
	return CellID(uint64(face)<<posBits | pos<<1 | 1)
}

// TestCellIDFromFaceIJMatchesBitLoop: the table kernel returns the bit
// loop's id on every face at the corners and edges of the (i, j) square,
// and on 10⁶ seeded random (face, i, j).
func TestCellIDFromFaceIJMatchesBitLoop(t *testing.T) {
	check := func(face, i, j int) {
		if got, want := cellIDFromFaceIJ(face, i, j), cellIDFromFaceIJBits(face, i, j); got != want {
			t.Fatalf("face %d (%d, %d): table gives %v, bit loop %v", face, i, j, got, want)
		}
	}
	edges := []int{0, 1, maxSize - 2, maxSize - 1}
	for face := range 6 {
		for _, i := range edges {
			for _, j := range edges {
				check(face, i, j)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	n := 1_000_000
	if testing.Short() {
		n = 10_000
	}
	for range n {
		check(rng.Intn(6), rng.Intn(maxSize), rng.Intn(maxSize))
	}
}

// TestCellIDFromLatLngMatchesBitLoop: through the projection, the poles,
// the antimeridian from both sides and the points where cube faces meet
// bin into the bit loop's cell.
func TestCellIDFromLatLngMatchesBitLoop(t *testing.T) {
	edgeLat := math.Atan(1/math.Sqrt2) * 180 / math.Pi // a cube corner's latitude
	var points []LatLng
	for _, lat := range []float64{-90, -edgeLat, -45, 0, 45, edgeLat, 90} {
		for _, lng := range []float64{-180, math.Nextafter(-180, 0), -135, -90, -45, 0, 45, 90, 135, math.Nextafter(180, 0), 180} {
			for _, d := range []float64{0, 1e-12, -1e-12} {
				points = append(points, LatLng{Lat: math.Max(-90, math.Min(90, lat+d)), Lng: lng + d})
			}
		}
	}
	for _, ll := range points {
		face, u, v := xyzToFaceUV(PointFromLatLng(ll))
		want := cellIDFromFaceIJBits(face, stToIJ(uvToST(u)), stToIJ(uvToST(v)))
		if got := CellIDFromLatLng(ll); got != want {
			t.Fatalf("%+v: CellIDFromLatLng gives %v, bit loop %v", ll, got, want)
		}
	}
}
