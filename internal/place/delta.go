package place

import "slices"

// Delta describes how a derived placement differs from the placement it was
// derived from: which instances moved, and which nets had a pin cell move
// (and so may have a changed bounding box and wirelength). It is the
// contract between the placement transforms that produce derived sweep
// points (Reflow, EmptyRowInsertionDelta, HotspotWrapperDelta in package
// core) and the consumers that re-evaluate only what changed:
// power.Report.Update re-estimates the dirty nets, and the flow returns the
// parent analysis unchanged for an empty delta.
//
// A full delta stands for "assume everything moved": consumers fall back to
// their from-scratch path. Reflow returns a full delta — relaxing the
// utilization re-spreads every row — while the row-insertion and wrapper
// transforms record surgically which cells the edit and the subsequent
// legalization actually displaced.
//
// The moved and dirty sets are reported in ascending ordinal order, so every
// iteration over a delta is deterministic.
type Delta struct {
	full bool

	moved     []int32 // instance ordinals, ascending
	dirtyNets []int32 // net ordinals, ascending
}

// FullDelta returns the delta that invalidates everything.
func FullDelta() *Delta { return &Delta{full: true} }

// IsFull reports whether the delta stands for "assume everything moved".
func (d *Delta) IsFull() bool { return d != nil && d.full }

// Empty reports whether the delta records no change at all.
func (d *Delta) Empty() bool { return d != nil && !d.full && len(d.moved) == 0 }

// Moved returns the ordinals of the moved instances in ascending order.
// The slice is shared; callers must not modify it.
func (d *Delta) Moved() []int32 { return d.moved }

// DirtyNets returns the ordinals of the nets with at least one moved pin
// cell in ascending order. Their cached bounding boxes were invalidated by
// the moves themselves (SetLoc); the list tells delta consumers which
// wirelength-dependent values to re-evaluate.
func (d *Delta) DirtyNets() []int32 { return d.dirtyNets }

// deltaRecorder accumulates the effect of SetLoc calls between BeginDelta
// and EndDelta.
type deltaRecorder struct {
	moved   []int32 // first-touch order; sorted at EndDelta
	touched []bool  // by instance ordinal
}

// BeginDelta starts recording placement changes: every subsequent SetLoc
// that actually moves an instance is folded into the delta returned by
// EndDelta. Recording nests with nothing and must be closed before the
// placement is shared; it exists for the derived-placement transforms,
// which clone, record, edit and legalize in one linear sequence.
func (p *Placement) BeginDelta() {
	p.rec = &deltaRecorder{touched: make([]bool, len(p.locs))}
}

// EndDelta stops recording and returns the accumulated delta relative to
// the placement state at BeginDelta.
func (p *Placement) EndDelta() *Delta {
	rec := p.rec
	p.rec = nil
	if rec == nil {
		return &Delta{}
	}
	d := &Delta{}
	// moved, ascending.
	d.moved = append(d.moved, rec.moved...)
	slices.Sort(d.moved)
	// Dirty nets: every net touching a moved instance, deduped via bitmap.
	netDirty := make([]bool, len(p.netBoxValid))
	for _, ord := range d.moved {
		for _, netOrd := range p.instNets[ord] {
			netDirty[netOrd] = true
		}
	}
	for netOrd, dirty := range netDirty {
		if dirty {
			d.dirtyNets = append(d.dirtyNets, int32(netOrd))
		}
	}
	return d
}

// record folds one real move into the active recorder.
func (p *Placement) record(ord int) {
	rec := p.rec
	if !rec.touched[ord] {
		rec.touched[ord] = true
		rec.moved = append(rec.moved, int32(ord))
	}
}
