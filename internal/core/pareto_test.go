package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestParetoFrontProperties holds ParetoFront and Front2D to their
// definitions on seeded random sets of 1 to 40 points whose coordinates
// come from a few integer levels, so ties and duplicates occur: no member
// is dominated by any point, every non-member is dominated by some member,
// and Front2D equals an independent sort-based skyline.
func TestParetoFrontProperties(t *testing.T) {
	all := func(p *EfficiencyPoint) []float64 {
		return []float64{p.AreaOverhead, p.PeakRise, p.CriticalPathPs, p.HPWL, float64(p.CongestionOverflows)}
	}
	areaRise := func(p *EfficiencyPoint) []float64 { return []float64{p.AreaOverhead, p.PeakRise} }
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		levels := 2 + rng.Intn(4)
		lv := func() float64 { return float64(rng.Intn(levels)) }
		pts := make([]EfficiencyPoint, 1+rng.Intn(40))
		for i := range pts {
			pts[i] = EfficiencyPoint{AreaOverhead: lv() / 10, PeakRise: 2 + lv(), CriticalPathPs: 100 + lv(), HPWL: 1000 + lv(), CongestionOverflows: int(lv())}
		}
		r := &SweepResult{Points: pts}
		checkFront(t, "ParetoFront", pts, r.ParetoFront(), all)
		front := r.Front2D()
		checkFront(t, "Front2D", pts, front, areaRise)
		if want := skyline(pts); !slices.Equal(front, want) {
			t.Fatalf("trial %d: Front2D %v, sort-based skyline %v", trial, front, want)
		}
	}
}

// checkFront requires front to list, in point order, exactly the points no
// point dominates under joint minimization of obj: no member is dominated
// by any point, and every non-member by some member.
func checkFront(t *testing.T, name string, pts []EfficiencyPoint, front []int, obj func(*EfficiencyPoint) []float64) {
	t.Helper()
	dominates := func(a, b []float64) bool {
		better := false
		for k := range a {
			if a[k] > b[k] {
				return false
			}
			better = better || a[k] < b[k]
		}
		return better
	}
	if !slices.IsSorted(front) {
		t.Fatalf("%s %v is not in point order", name, front)
	}
	for i := range pts {
		member := slices.Contains(front, i)
		dominated := false
		for j := range pts {
			if dominates(obj(&pts[j]), obj(&pts[i])) && (member || slices.Contains(front, j)) {
				dominated = true
			}
		}
		if member == dominated {
			t.Fatalf("%s %v: point %d %v is a member %v, dominated %v", name, front, i, obj(&pts[i]), member, dominated)
		}
	}
}

// skyline is the (area, rise) front by sorting: ordered by area, then
// rise, a point stays when its rise is the least of its equal-area group
// and strictly below every rise at a smaller area.
func skyline(pts []EfficiencyPoint) []int {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		if c := cmpFloat(pts[a].AreaOverhead, pts[b].AreaOverhead); c != 0 {
			return c
		}
		return cmpFloat(pts[a].PeakRise, pts[b].PeakRise)
	})
	var out []int
	below := math.Inf(1) // least rise at a smaller area
	for lo := 0; lo < len(idx); {
		hi := lo
		for hi < len(idx) && pts[idx[hi]].AreaOverhead == pts[idx[lo]].AreaOverhead {
			hi++
		}
		least := pts[idx[lo]].PeakRise
		for _, i := range idx[lo:hi] {
			if pts[i].PeakRise == least && least < below {
				out = append(out, i)
			}
		}
		below = math.Min(below, least)
		lo = hi
	}
	slices.Sort(out)
	return out
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
