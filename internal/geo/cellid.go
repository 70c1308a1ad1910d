package geo

import (
	"fmt"
	"math"
	"math/bits"
)

// MaxLevel is the deepest subdivision level. Together with the face level
// this yields the paper's "31 levels of hierarchical cells".
const MaxLevel = 30

const (
	posBits  = 2*MaxLevel + 1 // 61: Hilbert position bits + marker bit
	maxSize  = 1 << MaxLevel  // cells per face edge at the deepest level
	swapMask = 0x01
	invMask  = 0x02
)

// CellID identifies a cell of the hierarchical spatial grid. The zero value
// is invalid and is used throughout SLIM as the "no cell" sentinel.
//
// Bit layout (matching the S2 scheme): the top 3 bits hold the cube face,
// followed by up to 60 bits of Hilbert-curve position (2 per level), and a
// trailing marker bit whose position encodes the level.
type CellID uint64

// Hilbert curve orientation tables (identical to the canonical S2 tables).
// posToIJ[orientation][pos] gives the (i,j) sub-cell (encoded as i<<1|j)
// visited at position pos within a parent of the given orientation, and
// posToOrientation gives the orientation modifier for that sub-cell.
var (
	posToIJ = [4][4]int{
		{0, 1, 3, 2}, // canonical
		{0, 2, 3, 1}, // swap
		{3, 2, 0, 1}, // invert
		{3, 1, 0, 2}, // swap + invert
	}
	ijToPos = [4][4]int{
		{0, 1, 3, 2},
		{0, 3, 1, 2},
		{2, 3, 1, 0},
		{2, 1, 3, 0},
	}
	posToOrientation = [4]int{swapMask, 0, 0, invMask | swapMask}
)

// CellIDFromLatLng returns the leaf cell (level 30) containing the position.
func CellIDFromLatLng(ll LatLng) CellID {
	face, u, v := xyzToFaceUV(PointFromLatLng(ll))
	i := stToIJ(uvToST(u))
	j := stToIJ(uvToST(v))
	return cellIDFromFaceIJ(face, i, j)
}

// CellIDFromLatLngLevel returns the cell at the given level containing the
// position. Levels outside [0, MaxLevel] are clamped.
func CellIDFromLatLngLevel(ll LatLng, level int) CellID {
	return CellIDFromLatLng(ll).Parent(level)
}

// lookupBits is how many levels of the Hilbert curve one lookupPos entry
// resolves: the table maps a key iiii jjjj oo (4 bits of i, 4 of j, the
// orientation on entry) to pppppppp oo (the 8 position bits of those four
// levels, the orientation on exit), the scheme of S2's lookupPos.
const lookupBits = 4

var lookupPos = buildLookupPos()

// buildLookupPos fills the table by walking the Hilbert curve one level at
// a time (ijToPos, posToOrientation) through every 4-level (i, j) block
// from every orientation.
func buildLookupPos() (t [1 << (2*lookupBits + 2)]uint16) {
	for orientation := range 4 {
		for ij := range 1 << (2 * lookupBits) {
			i, j := ij>>lookupBits, ij&(1<<lookupBits-1)
			o := orientation
			var pos int
			for k := lookupBits - 1; k >= 0; k-- {
				p := ijToPos[o][(i>>k&1)<<1|j>>k&1]
				pos = pos<<2 | p
				o ^= posToOrientation[p]
			}
			t[ij<<2|orientation] = uint16(pos<<2 | o)
		}
	}
	return t
}

// cellIDFromFaceIJ returns the leaf cell at (i, j) of the face, resolving
// four levels per table lookup: eight steps for the 30 levels. The first
// step's two top levels read bits 30 and 31 of i and j, which are zero on
// every face; from the non-inverted orientation a face starts in, they add
// no position bits and hand the third level that orientation back.
func cellIDFromFaceIJ(face, i, j int) CellID {
	const mask, steps = 1<<lookupBits - 1, (MaxLevel + lookupBits - 1) / lookupBits
	var pos uint64
	bits := face & swapMask
	for k := steps - 1; k >= 0; k-- {
		bits |= (i>>(k*lookupBits)&mask)<<(lookupBits+2) | (j>>(k*lookupBits)&mask)<<2
		bits = int(lookupPos[bits])
		pos |= uint64(bits>>2) << (k * 2 * lookupBits)
		bits &= swapMask | invMask
	}
	return CellID(uint64(face)<<posBits | pos<<1 | 1)
}

// faceIJOrientation decodes the face and the leaf-level (i,j) coordinates of
// a leaf cell inside this cell (for non-leaf cells, the marker-bit pattern
// decodes to a leaf adjacent to the cell center).
func (c CellID) faceIJOrientation() (face, i, j int) {
	face = int(uint64(c) >> posBits)
	orientation := face & swapMask
	pos := uint64(c) >> 1 & (1<<(2*MaxLevel) - 1)
	for k := MaxLevel - 1; k >= 0; k-- {
		p := int(pos>>(2*uint(k))) & 3
		ij := posToIJ[orientation][p]
		i = i<<1 | ij>>1
		j = j<<1 | ij&1
		orientation ^= posToOrientation[p]
	}
	return face, i, j
}

// IsValid reports whether the id denotes a real cell: a face in [0, 5] and
// a well-formed marker bit.
func (c CellID) IsValid() bool {
	return c>>posBits < 6 && c.lsb()&0x1555555555555555 != 0
}

// lsb returns the lowest set bit (the level marker).
func (c CellID) lsb() uint64 { return uint64(c) & (^uint64(c) + 1) }

func lsbForLevel(level int) uint64 { return 1 << uint(2*(MaxLevel-level)) }

// Level returns the subdivision level of the cell in [0, MaxLevel].
func (c CellID) Level() int {
	return MaxLevel - bits.TrailingZeros64(uint64(c))>>1
}

// Face returns the cube face in [0, 5].
func (c CellID) Face() int { return int(uint64(c) >> posBits) }

// IsLeaf reports whether the cell is at the deepest level.
func (c CellID) IsLeaf() bool { return uint64(c)&1 != 0 }

// Parent returns the ancestor cell at the given level. Levels at or above
// the cell's own level return the cell's ancestor; asking for a deeper
// level returns the cell itself. Levels are clamped to [0, MaxLevel].
func (c CellID) Parent(level int) CellID {
	if level < 0 {
		level = 0
	}
	if level > MaxLevel {
		level = MaxLevel
	}
	if level >= c.Level() {
		return c
	}
	lsb := lsbForLevel(level)
	return CellID(uint64(c)&(^lsb+1) | lsb)
}

// immediateParent returns the parent one level up; calling it on a face
// cell returns the face cell itself.
func (c CellID) immediateParent() CellID {
	lvl := c.Level()
	if lvl == 0 {
		return c
	}
	return c.Parent(lvl - 1)
}

// Children returns the four child cells in Hilbert order. Calling Children
// on a leaf returns four copies of the leaf.
func (c CellID) Children() [4]CellID {
	if c.IsLeaf() {
		return [4]CellID{c, c, c, c}
	}
	lsb := c.lsb()
	childLsb := lsb >> 2
	first := uint64(c) - lsb + childLsb
	var out [4]CellID
	for k := 0; k < 4; k++ {
		out[k] = CellID(first + uint64(k)*2*childLsb)
	}
	return out
}

// RangeMin returns the smallest leaf cell id contained in this cell.
func (c CellID) RangeMin() CellID { return CellID(uint64(c) - (c.lsb() - 1)) }

// RangeMax returns the largest leaf cell id contained in this cell.
func (c CellID) RangeMax() CellID { return CellID(uint64(c) + (c.lsb() - 1)) }

// Contains reports whether o is equal to or a descendant of c.
func (c CellID) Contains(o CellID) bool {
	return o >= c.RangeMin() && o <= c.RangeMax()
}

// Center returns the unit-sphere point at the center of the cell.
func (c CellID) Center() Point {
	face, si, ti := c.centerSiTi()
	u := stToUV(float64(si) / (2 * maxSize))
	v := stToUV(float64(ti) / (2 * maxSize))
	return faceUVToXYZ(face, u, v).Normalize()
}

// centerSiTi returns the cell center in half-leaf units (so that integer
// arithmetic stays exact for every level).
func (c CellID) centerSiTi() (face, si, ti int) {
	face, i, j := c.faceIJOrientation()
	size := 1 << uint(MaxLevel-c.Level())
	i &^= size - 1
	j &^= size - 1
	return face, 2*i + size, 2*j + size
}

// LatLng returns the geographic position of the cell center.
func (c CellID) LatLng() LatLng { return LatLngFromPoint(c.Center()) }

// Vertices returns the four corner points of the cell.
func (c CellID) Vertices() [4]Point {
	face, i, j := c.faceIJOrientation()
	size := 1 << uint(MaxLevel-c.Level())
	i &^= size - 1
	j &^= size - 1
	sLo := float64(i) / maxSize
	sHi := float64(i+size) / maxSize
	tLo := float64(j) / maxSize
	tHi := float64(j+size) / maxSize
	return [4]Point{
		faceUVToXYZ(face, stToUV(sLo), stToUV(tLo)).Normalize(),
		faceUVToXYZ(face, stToUV(sHi), stToUV(tLo)).Normalize(),
		faceUVToXYZ(face, stToUV(sHi), stToUV(tHi)).Normalize(),
		faceUVToXYZ(face, stToUV(sLo), stToUV(tHi)).Normalize(),
	}
}

// CircumradiusRad returns the angular radius (radians) of the smallest cap
// centered at the cell center that contains the whole cell.
func (c CellID) CircumradiusRad() float64 {
	center := c.Center()
	var r float64
	for _, v := range c.Vertices() {
		if a := center.Angle(v); a > r {
			r = a
		}
	}
	return r
}

// String renders the id as face/level/hex-position, e.g. "2/12/0x...".
func (c CellID) String() string {
	if !c.IsValid() {
		return fmt.Sprintf("Invalid(0x%016x)", uint64(c))
	}
	return fmt.Sprintf("%d/%d/0x%016x", c.Face(), c.Level(), uint64(c))
}

// MarshalText renders the id as 16 hex digits — its form in JSON, where a
// number above 2^53 would be silently rounded by JavaScript consumers.
func (c CellID) MarshalText() ([]byte, error) {
	return fmt.Appendf(nil, "%016x", uint64(c)), nil
}

// ---- cube-face projection ----

// uvToST applies the inverse quadratic transform, mapping [-1,1] to [0,1]
// with near-uniform cell areas (the same transform S2 uses).
func uvToST(u float64) float64 {
	if u >= 0 {
		return 0.5 * math.Sqrt(1+3*u)
	}
	return 1 - 0.5*math.Sqrt(1-3*u)
}

// stToUV is the forward quadratic transform, mapping [0,1] to [-1,1].
func stToUV(s float64) float64 {
	if s >= 0.5 {
		return (1.0 / 3) * (4*s*s - 1)
	}
	return (1.0 / 3) * (1 - 4*(1-s)*(1-s))
}

// stToIJ discretizes an st coordinate into a leaf-level integer in
// [0, maxSize).
func stToIJ(s float64) int {
	i := int(math.Floor(s * maxSize))
	if i < 0 {
		return 0
	}
	if i > maxSize-1 {
		return maxSize - 1
	}
	return i
}

// xyzToFaceUV projects a point onto the cube, returning the dominant face
// and the (u,v) coordinates within it.
func xyzToFaceUV(p Point) (face int, u, v float64) {
	abs := [3]float64{math.Abs(p.X), math.Abs(p.Y), math.Abs(p.Z)}
	axis := 0
	if abs[1] > abs[axis] {
		axis = 1
	}
	if abs[2] > abs[axis] {
		axis = 2
	}
	var val float64
	switch axis {
	case 0:
		val = p.X
	case 1:
		val = p.Y
	default:
		val = p.Z
	}
	face = axis
	if val < 0 {
		face += 3
	}
	switch face {
	case 0:
		u, v = p.Y/p.X, p.Z/p.X
	case 1:
		u, v = -p.X/p.Y, p.Z/p.Y
	case 2:
		u, v = -p.X/p.Z, -p.Y/p.Z
	case 3:
		u, v = p.Z/p.X, p.Y/p.X
	case 4:
		u, v = p.Z/p.Y, -p.X/p.Y
	default:
		u, v = -p.Y/p.Z, -p.X/p.Z
	}
	return face, u, v
}

// faceUVToXYZ is the inverse of xyzToFaceUV (result is not normalized).
func faceUVToXYZ(face int, u, v float64) Point {
	switch face {
	case 0:
		return Point{1, u, v}
	case 1:
		return Point{-u, 1, v}
	case 2:
		return Point{-u, -v, 1}
	case 3:
		return Point{-1, -v, -u}
	case 4:
		return Point{v, -1, -u}
	default:
		return Point{v, u, -1}
	}
}
