package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	want := Rect{1, 2, 5, 7}
	if r != want {
		t.Fatalf("NewRect = %v, want %v", r, want)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 10, 4}
	if r.W() != 10 || r.H() != 4 || r.Area() != 40 {
		t.Fatalf("W/H/Area = %v/%v/%v", r.W(), r.H(), r.Area())
	}
	if r.Empty() {
		t.Fatal("rect should not be empty")
	}
	if (Rect{3, 3, 3, 9}).Area() != 0 {
		t.Fatal("degenerate rect must have zero area")
	}
	if c := r.Center(); c != (Point{5, 2}) {
		t.Fatalf("Center = %v", c)
	}
	if !r.Contains(Point{0, 0}) || r.Contains(Point{10, 4}) {
		t.Fatal("Contains must be lower-inclusive, upper-exclusive")
	}
	if !r.ContainsClosed(Point{10, 4}) {
		t.Fatal("ContainsClosed must include the upper corner")
	}
	if r.HalfPerimeter() != 14 {
		t.Fatalf("HalfPerimeter = %v", r.HalfPerimeter())
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	c := Rect{20, 20, 30, 30}

	if !a.Intersects(b) {
		t.Fatal("a and b should intersect")
	}
	if a.Intersects(c) {
		t.Fatal("a and c should not intersect")
	}
	in := a.Intersect(b)
	if in != (Rect{5, 5, 10, 10}) {
		t.Fatalf("Intersect = %v", in)
	}
	if !a.Intersect(c).Empty() {
		t.Fatal("disjoint intersection must be empty")
	}
	un := a.Union(b)
	if un != (Rect{0, 0, 15, 15}) {
		t.Fatalf("Union = %v", un)
	}
	if got := (Rect{}).Union(a); got != a {
		t.Fatalf("empty union identity failed: %v", got)
	}
}

func TestRectExpandTranslate(t *testing.T) {
	r := Rect{2, 2, 4, 4}
	if got := r.Expand(1); got != (Rect{1, 1, 5, 5}) {
		t.Fatalf("Expand = %v", got)
	}
	if got := r.Translate(3, -2); got != (Rect{5, 0, 7, 2}) {
		t.Fatalf("Translate = %v", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatal("Clamp failed")
	}
	if ClampInt(5, 0, 3) != 3 || ClampInt(-1, 0, 3) != 0 || ClampInt(2, 0, 3) != 2 {
		t.Fatal("ClampInt failed")
	}
}

// Property: intersection area is never larger than either operand's area,
// and union always contains both operands.
func TestRectIntersectUnionProperties(t *testing.T) {
	f := func(x1, y1, x2, y2, x3, y3, x4, y4 float64) bool {
		// Keep coordinates in a sane range to avoid inf/NaN artefacts.
		norm := func(v float64) float64 { return math.Mod(v, 1000) }
		a := NewRect(norm(x1), norm(y1), norm(x2), norm(y2))
		b := NewRect(norm(x3), norm(y3), norm(x4), norm(y4))
		in := a.Intersect(b)
		un := a.Union(b)
		if in.Area() > a.Area()+1e-9 || in.Area() > b.Area()+1e-9 {
			return false
		}
		if un.Area()+1e-9 < a.Area() || un.Area()+1e-9 < b.Area() {
			return false
		}
		// The intersection must be contained in the union.
		if !in.Empty() && un.Intersect(in) != in {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
