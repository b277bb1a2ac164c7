// Package geom provides the low-level geometric primitives used throughout
// the placement and thermal-analysis code: integer/float points, rectangles,
// dense 2-D scalar grids and a few small statistics helpers.
//
// All physical coordinates are expressed in micrometres (um) as float64;
// discrete grid coordinates are plain ints.
package geom

import (
	"fmt"
	"math"
)

// Point is a 2-D point in micrometres.
type Point struct {
	X, Y float64
}

func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle with inclusive lower-left corner and
// exclusive upper-right corner, in micrometres. A Rect with Xhi <= Xlo or
// Yhi <= Ylo is considered empty.
type Rect struct {
	Xlo, Ylo, Xhi, Yhi float64
}

// NewRect builds a rectangle from two opposite corners in any order.
func NewRect(x1, y1, x2, y2 float64) Rect {
	return Rect{math.Min(x1, x2), math.Min(y1, y2), math.Max(x1, x2), math.Max(y1, y2)}
}

// W returns the width of the rectangle (0 if empty).
func (r Rect) W() float64 {
	if r.Xhi <= r.Xlo {
		return 0
	}
	return r.Xhi - r.Xlo
}

// H returns the height of the rectangle (0 if empty).
func (r Rect) H() float64 {
	if r.Yhi <= r.Ylo {
		return 0
	}
	return r.Yhi - r.Ylo
}

// Area returns the area of the rectangle in um^2.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Empty reports whether the rectangle has zero area.
func (r Rect) Empty() bool { return r.Xhi <= r.Xlo || r.Yhi <= r.Ylo }

// Center returns the centre point of the rectangle.
func (r Rect) Center() Point { return Point{(r.Xlo + r.Xhi) / 2, (r.Ylo + r.Yhi) / 2} }

// Contains reports whether p lies inside the rectangle (lower/left edges
// inclusive, upper/right edges exclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Xlo && p.X < r.Xhi && p.Y >= r.Ylo && p.Y < r.Yhi
}

// ContainsClosed reports whether p lies inside the closed rectangle
// (all edges inclusive).
func (r Rect) ContainsClosed(p Point) bool {
	return p.X >= r.Xlo && p.X <= r.Xhi && p.Y >= r.Ylo && p.Y <= r.Yhi
}

// Intersects reports whether r and s overlap with non-zero area.
func (r Rect) Intersects(s Rect) bool {
	return r.Xlo < s.Xhi && s.Xlo < r.Xhi && r.Ylo < s.Yhi && s.Ylo < r.Yhi
}

// Intersect returns the overlapping region of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		math.Max(r.Xlo, s.Xlo), math.Max(r.Ylo, s.Ylo),
		math.Min(r.Xhi, s.Xhi), math.Min(r.Yhi, s.Yhi),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Union returns the bounding box of r and s. An empty rectangle acts as the
// identity element.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		math.Min(r.Xlo, s.Xlo), math.Min(r.Ylo, s.Ylo),
		math.Max(r.Xhi, s.Xhi), math.Max(r.Yhi, s.Yhi),
	}
}

// Expand grows the rectangle by d on every side. A negative d shrinks it.
func (r Rect) Expand(d float64) Rect {
	return Rect{r.Xlo - d, r.Ylo - d, r.Xhi + d, r.Yhi + d}
}

// Translate moves the rectangle by (dx, dy).
func (r Rect) Translate(dx, dy float64) Rect {
	return Rect{r.Xlo + dx, r.Ylo + dy, r.Xhi + dx, r.Yhi + dy}
}

// HalfPerimeter returns the half-perimeter wirelength of the rectangle,
// the usual HPWL net-length estimate.
func (r Rect) HalfPerimeter() float64 { return r.W() + r.H() }

func (r Rect) String() string {
	return fmt.Sprintf("[%.3f %.3f %.3f %.3f]", r.Xlo, r.Ylo, r.Xhi, r.Yhi)
}

// Clamp restricts v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampInt restricts v to the closed interval [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
