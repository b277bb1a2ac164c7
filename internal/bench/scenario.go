package bench

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"thermplace/internal/celllib"
	"thermplace/internal/netlist"
)

// Family names one scenario family: a recipe that turns (seed, knobs) into a
// concrete unit mix and workload. Families differ in how they spend the cell
// budget and where they put the heat, so together they cover qualitatively
// different placement and thermal regimes instead of the paper's single
// design point.
type Family string

const (
	// FamilyPaperSynth9 reproduces the paper's nine-unit mix, scaled to the
	// target cell count, under a jittered scattered-small-hotspot workload.
	// The unit list is seed-independent by design (fidelity to the paper);
	// the seed only perturbs the workload activities.
	FamilyPaperSynth9 Family = "paper-synth9"
	// FamilyHotspotCluster packs two or three very hot small multipliers
	// into a sea of quiet random logic: few, tight, concentrated hotspots.
	FamilyHotspotCluster Family = "hotspot-cluster"
	// FamilyGradientMix cycles through every unit kind with a linear
	// activity ramp across the unit list: a broad thermal gradient rather
	// than isolated hotspots.
	FamilyGradientMix Family = "gradient-mix"
	// FamilyManyUnits splits the budget into dozens of small units with
	// random activities: it stresses per-unit bookkeeping, floorplan
	// regions and the placer's row structures.
	FamilyManyUnits Family = "many-units"
	// FamilyWideDatapath spends the budget on a few very wide units: large
	// contiguous unit regions with one wide hot block.
	FamilyWideDatapath Family = "wide-datapath"
)

// Families returns every scenario family, in a stable order.
func Families() []Family {
	return []Family{
		FamilyPaperSynth9,
		FamilyHotspotCluster,
		FamilyGradientMix,
		FamilyManyUnits,
		FamilyWideDatapath,
	}
}

// ParseFamily resolves a family name as used on command lines.
func ParseFamily(s string) (Family, error) {
	for _, f := range Families() {
		if string(f) == s {
			return f, nil
		}
	}
	return "", fmt.Errorf("bench: unknown scenario family %q (known: %v)", s, Families())
}

// Scenario is a seeded, parameterized benchmark description: a family plus
// the knobs the generator exposes. The same Scenario always produces a
// byte-identical netlist and workload (the generator draws every random
// choice from a deterministic RNG derived from Family and Seed), which is
// the reproducibility contract the metamorphic harness and the CI benchmarks
// rely on.
type Scenario struct {
	// Family selects the generation recipe.
	Family Family
	// Seed drives every random choice of the generator.
	Seed int64
	// TargetCells is the approximate standard-cell count to generate
	// (within a few percent for most families). Zero means 12000, the
	// paper's size.
	TargetCells int
	// ClockGHz is the clock frequency; zero means 1.0.
	ClockGHz float64
}

// Normalized returns the scenario with every zero knob replaced by its
// default.
func (sc Scenario) Normalized() Scenario {
	if sc.TargetCells == 0 {
		sc.TargetCells = 12000
	}
	if sc.ClockGHz == 0 {
		sc.ClockGHz = 1.0
	}
	return sc
}

// Validate checks the (normalized) scenario for usable knob values.
func (sc Scenario) Validate() error {
	if _, err := ParseFamily(string(sc.Family)); err != nil {
		return err
	}
	if sc.TargetCells < 300 || sc.TargetCells > 2_000_000 {
		return fmt.Errorf("bench: target cell count %d outside [300, 2000000]", sc.TargetCells)
	}
	if sc.ClockGHz <= 0 {
		return fmt.Errorf("bench: clock %v GHz must be positive", sc.ClockGHz)
	}
	return nil
}

// Name returns a stable human-readable identifier for the scenario.
func (sc Scenario) Name() string {
	sc = sc.Normalized()
	return fmt.Sprintf("%s_s%d_c%d", sanitizeIdent(string(sc.Family)), sc.Seed, sc.TargetCells)
}

func (sc Scenario) String() string { return sc.Name() }

// sanitizeIdent maps a family name onto a Verilog-safe identifier chunk.
func sanitizeIdent(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out[i] = c
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// rngSeed mixes the family name into the seed so that two families at the
// same seed draw independent random streams.
func (sc Scenario) rngSeed() int64 {
	h := fnv.New64a()
	h.Write([]byte(sc.Family))
	return sc.Seed ^ int64(h.Sum64())
}

// Generated bundles everything a Scenario produces: the concrete unit-level
// configuration, the gate-level design and the workload that positions its
// hotspots.
type Generated struct {
	// Scenario is the normalized scenario that produced the rest.
	Scenario Scenario
	// Config is the concrete unit list handed to Generate.
	Config Config
	// Workload is the per-unit switching-activity profile.
	Workload Workload
	// Design is the generated gate-level netlist.
	Design *netlist.Design
}

// Generate builds the scenario's design and workload. Generation is fully
// deterministic: calling Generate twice with equal scenarios yields designs
// whose Verilog and DEF serializations are byte-identical.
func (sc Scenario) Generate(lib *celllib.Library) (*Generated, error) {
	sc = sc.Normalized()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(sc.rngSeed()))
	units, wl := sc.plan(rng)
	cfg := Config{Name: sc.Name(), ClockGHz: sc.ClockGHz, Units: units}
	d, err := Generate(lib, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: scenario %s: %w", sc, err)
	}
	return &Generated{Scenario: sc, Config: cfg, Workload: wl, Design: d}, nil
}

// EstimateCells predicts the number of standard cells buildUnit creates for
// spec. The formulas follow the unit generators exactly (partial-product
// arrays, two cells per adder position, registers and output buffers), so
// the scenario planners can hit a target cell count without generating.
func EstimateCells(spec UnitSpec) int {
	w := spec.Width
	switch spec.Kind {
	case KindMultiplier:
		// w^2 partial products + 2w(w-1) carry-save cells + 2w DFF + 2w BUF.
		return 3*w*w + 2*w
	case KindRippleAdder:
		// 2w adder cells + (w+1) DFF + (w+1) BUF.
		return 4*w + 2
	case KindCarrySelectAdder:
		// First block: plain ripple. Later blocks: 2 ties + two ripples with
		// carry-in + (block+1) muxes. Registers and buffers on w+1 bits.
		first := csaBlock
		if w < first {
			first = w
		}
		cells := 2 * first // first block
		rem := w - first
		for rem > 0 {
			blk := csaBlock
			if rem < blk {
				blk = rem
			}
			cells += 2 + 4*blk + blk + 1
			rem -= blk
		}
		return cells + 2*(w+1)
	case KindMAC:
		// Multiplier core (no registers) + TIE0 + ripple over 2w+4 bits +
		// (2w+4) DFF + (2w+4) BUF.
		return 3*w*w - 2*w + 1 + 4*(2*w+4)
	case KindALU:
		// 2w ripple + 6 cells per bit (and/or/xor + 3 muxes) + w DFF + w BUF.
		return 10 * w
	case KindComparator:
		// w XNOR + (w-1) AND tree + w INV + TIE1 + 2w ripple + INV + AND +
		// 2 DFF + 2 BUF.
		return 5*w + 6
	default:
		return 0
	}
}

// csaBlock is the carry-select block size used by buildCarrySelectAdder.
const csaBlock = 8

// unitPlan accumulates units with deterministic, underscore-free names (the
// flow maps a port to its unit by splitting at the first underscore, so unit
// names must not contain one).
type unitPlan struct {
	units []UnitSpec
	est   int
	seen  map[string]int
}

func newUnitPlan() *unitPlan { return &unitPlan{seen: map[string]int{}} }

// add appends a unit of the given kind and width and returns its name.
func (p *unitPlan) add(kind UnitKind, width int) string {
	base := kindPrefix(kind) + fmt.Sprint(width)
	n := p.seen[base]
	p.seen[base]++
	name := base + alphaSuffix(n)
	p.units = append(p.units, UnitSpec{Name: name, Kind: kind, Width: width})
	p.est += EstimateCells(UnitSpec{Kind: kind, Width: width})
	return name
}

func kindPrefix(kind UnitKind) string {
	switch kind {
	case KindMultiplier:
		return "mult"
	case KindRippleAdder:
		return "add"
	case KindCarrySelectAdder:
		return "csadd"
	case KindMAC:
		return "mac"
	case KindALU:
		return "alu"
	case KindComparator:
		return "cmp"
	default:
		return "unit"
	}
}

// alphaSuffix returns "", "a", "b", ..., "z", "aa", ... for n = 0, 1, 2, ...
func alphaSuffix(n int) string {
	if n == 0 {
		return ""
	}
	var b []byte
	for n > 0 {
		n--
		b = append([]byte{byte('a' + n%26)}, b...)
		n /= 26
	}
	return string(b)
}

// fillToTarget tops the plan up to the target with ripple adders sized to
// the remaining budget, which brings every family within a few percent of
// TargetCells regardless of how coarse its big units are.
func (p *unitPlan) fillToTarget(target int) {
	for p.est < target {
		w := (target - p.est - 2) / 4
		if w > 64 {
			w = 64
		}
		if w < 4 {
			break
		}
		p.add(KindRippleAdder, w)
	}
}

// jitter returns v perturbed by up to ±frac (relative), drawn from rng and
// clamped to the [0, 1] toggle-probability domain.
func jitter(rng *rand.Rand, v, frac float64) float64 {
	v *= 1 + frac*(2*rng.Float64()-1)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// plan dispatches to the family planner and assembles the workload.
func (sc Scenario) plan(rng *rand.Rand) ([]UnitSpec, Workload) {
	switch sc.Family {
	case FamilyPaperSynth9:
		return sc.planPaperSynth9(rng)
	case FamilyHotspotCluster:
		return sc.planHotspotCluster(rng)
	case FamilyGradientMix:
		return sc.planGradientMix(rng)
	case FamilyManyUnits:
		return sc.planManyUnits(rng)
	case FamilyWideDatapath:
		return sc.planWideDatapath(rng)
	default:
		// Validate rejects unknown families before plan runs.
		panic(fmt.Sprintf("bench: unplanned family %q", sc.Family))
	}
}

// paperBaseCells is EstimateCells summed over the paper's nine units; the
// paper-synth9 planner scales widths by sqrt(target/paperBaseCells).
const paperBaseCells = 11808

func (sc Scenario) planPaperSynth9(rng *rand.Rand) ([]UnitSpec, Workload) {
	base := []struct {
		kind  UnitKind
		width int
		hot   bool
	}{
		{KindMultiplier, 32, false},
		{KindMultiplier, 28, false},
		{KindMultiplier, 24, false},
		{KindMultiplier, 20, true},
		{KindMultiplier, 16, true},
		{KindMultiplier, 16, true},
		{KindMAC, 16, true},
		{KindALU, 32, false},
		{KindCarrySelectAdder, 64, false},
	}
	scale := math.Sqrt(float64(sc.TargetCells) / paperBaseCells)
	hot, cold := 0.50, 0.04
	p := newUnitPlan()
	wl := Workload{
		Name:     "scattered-" + sc.Name(),
		Activity: map[string]float64{},
		Default:  cold,
	}
	for _, u := range base {
		w := int(math.Round(float64(u.width) * scale))
		if w < 4 {
			w = 4
		}
		name := p.add(u.kind, w)
		if u.hot {
			wl.Activity[name] = jitter(rng, hot, 0.10)
		}
	}
	return p.units, wl
}

func (sc Scenario) planHotspotCluster(rng *rand.Rand) ([]UnitSpec, Workload) {
	hot, cold := 0.58, 0.02
	nHot := 2 + rng.Intn(2)
	// Spend no more than about half the budget on the hot cluster.
	wHot := clampInt(int(math.Sqrt(float64(sc.TargetCells)/(8*float64(nHot)))), 6, 14)
	p := newUnitPlan()
	wl := Workload{
		Name:     "cluster-" + sc.Name(),
		Activity: map[string]float64{},
		Default:  cold,
	}
	for i := 0; i < nHot; i++ {
		w := clampInt(wHot+rng.Intn(3)-1, 4, 16)
		name := p.add(KindMultiplier, w)
		wl.Activity[name] = jitter(rng, hot, 0.08)
	}
	coldKinds := []UnitKind{KindRippleAdder, KindALU, KindComparator, KindCarrySelectAdder}
	for p.est < sc.TargetCells && len(p.units) < 4096 {
		kind := coldKinds[rng.Intn(len(coldKinds))]
		w := 8 + rng.Intn(25)
		if p.est+EstimateCells(UnitSpec{Kind: kind, Width: w}) > sc.TargetCells {
			break
		}
		p.add(kind, w)
	}
	p.fillToTarget(sc.TargetCells)
	return p.units, wl
}

func (sc Scenario) planGradientMix(rng *rand.Rand) ([]UnitSpec, Workload) {
	hot, cold := 0.55, 0.02
	kinds := []UnitKind{
		KindMultiplier, KindALU, KindCarrySelectAdder,
		KindComparator, KindMAC, KindRippleAdder,
	}
	p := newUnitPlan()
	for i := 0; p.est < sc.TargetCells && len(p.units) < 4096; i++ {
		kind := kinds[i%len(kinds)]
		var w int
		switch kind {
		case KindMultiplier, KindMAC:
			w = 8 + rng.Intn(9)
		case KindCarrySelectAdder:
			w = 16 + rng.Intn(33)
		default:
			w = 16 + rng.Intn(17)
		}
		if p.est+EstimateCells(UnitSpec{Kind: kind, Width: w}) > sc.TargetCells {
			break
		}
		p.add(kind, w)
	}
	p.fillToTarget(sc.TargetCells)
	// Activity ramps linearly from hot to cold across the unit list,
	// producing a thermal gradient instead of discrete spots.
	wl := Workload{
		Name:     "gradient-" + sc.Name(),
		Activity: map[string]float64{},
		Default:  cold,
	}
	n := len(p.units)
	for i, u := range p.units {
		frac := 0.0
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		a := hot - (hot-cold)*frac
		a = jitter(rng, a, 0.05)
		if a < cold {
			a = cold
		}
		wl.Activity[u.Name] = a
	}
	return p.units, wl
}

func (sc Scenario) planManyUnits(rng *rand.Rand) ([]UnitSpec, Workload) {
	hot, cold := 0.60, 0.05
	kinds := []UnitKind{
		KindMultiplier, KindRippleAdder, KindCarrySelectAdder,
		KindMAC, KindALU, KindComparator,
	}
	p := newUnitPlan()
	wl := Workload{
		Name:     "many-" + sc.Name(),
		Activity: map[string]float64{},
		Default:  cold,
	}
	for p.est < sc.TargetCells && len(p.units) < 8192 {
		kind := kinds[rng.Intn(len(kinds))]
		var w int
		switch kind {
		case KindMultiplier, KindMAC:
			w = 4 + rng.Intn(4)
		default:
			w = 6 + rng.Intn(11)
		}
		name := p.add(kind, w)
		wl.Activity[name] = cold + (hot/2-cold)*rng.Float64()
	}
	// Boost one deterministic unit so the design always has a clear
	// hotspot for the transforms to target.
	if len(p.units) > 0 {
		wl.Activity[p.units[rng.Intn(len(p.units))].Name] = hot
	}
	return p.units, wl
}

func (sc Scenario) planWideDatapath(rng *rand.Rand) ([]UnitSpec, Workload) {
	hot, cold := 0.52, 0.04
	p := newUnitPlan()
	wl := Workload{
		Name:     "wide-" + sc.Name(),
		Activity: map[string]float64{},
		Default:  cold,
	}
	// One wide hot multiplier consuming about a third of the budget, its
	// exact width jittered by the seed.
	wMult := clampInt(int(math.Sqrt(float64(sc.TargetCells)/9))+rng.Intn(5)-2, 12, 56)
	hotName := p.add(KindMultiplier, wMult)
	wl.Activity[hotName] = jitter(rng, hot, 0.06)
	for p.est < sc.TargetCells && len(p.units) < 1024 {
		var kind UnitKind
		var w int
		switch rng.Intn(4) {
		case 0:
			kind, w = KindCarrySelectAdder, 48+rng.Intn(81)
		case 1:
			kind, w = KindALU, 32+rng.Intn(33)
		case 2:
			kind, w = KindMAC, 12+rng.Intn(13)
		default:
			kind, w = KindMultiplier, clampInt(wMult/2+rng.Intn(9)-4, 8, 48)
		}
		if p.est+EstimateCells(UnitSpec{Kind: kind, Width: w}) > sc.TargetCells {
			break
		}
		p.add(kind, w)
	}
	p.fillToTarget(sc.TargetCells)
	return p.units, wl
}
