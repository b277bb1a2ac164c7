package logicsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/netlist"
)

// referenceActivity is an independent oracle for RunRandom. It settles the
// design by memoized recursion through each net's driver — a primary input
// gives its current value, a flip-flop output its state, a combinational
// driver celllib.Func.Eval of its input nets in Master.Inputs() order, and
// an undriven net false — with no levelization, truth tables or net
// ordinals. It finds the clock nets by its own recursion from every
// flip-flop's clock pin back through BUF and INV drivers, settles twice
// per cycle (capturing every data pin between the two) and draws the
// stimulus exactly as RunRandom documents.
func referenceActivity(d *netlist.Design, cycles int, seed int64, activityFor func(port string) float64) map[*netlist.Net]float64 {
	clocks := make(map[*netlist.Net]bool)
	var markClock func(n *netlist.Net)
	markClock = func(n *netlist.Net) {
		clocks[n] = true
		if drv := n.Driver.Inst; drv != nil && (drv.Master.Function == celllib.FuncBuf || drv.Master.Function == celllib.FuncInv) {
			markClock(drv.Conn(drv.Master.Inputs()[0]))
		}
	}
	for _, inst := range d.Instances() {
		if inst.Master.Sequential {
			markClock(inst.Conn(inst.Master.ClockPin()))
		}
	}
	var names []string
	inputNet := make(map[string]*netlist.Net)
	for _, p := range d.Ports() {
		if p.Dir == netlist.In && !clocks[p.Net] {
			names = append(names, p.Name)
			inputNet[p.Name] = p.Net
		}
	}
	sort.Strings(names)

	inputs := make(map[*netlist.Net]bool)
	state := make(map[*netlist.Instance]bool)
	var memo map[*netlist.Net]bool
	var value func(n *netlist.Net) bool
	value = func(n *netlist.Net) bool {
		if v, ok := memo[n]; ok {
			return v
		}
		var v bool
		switch drv := n.Driver; {
		case drv.Port != nil:
			v = inputs[n]
		case drv.Inst == nil:
			v = false
		case drv.Inst.Master.Sequential:
			v = state[drv.Inst]
		default:
			var args []bool
			for _, pin := range drv.Inst.Master.Inputs() {
				args = append(args, value(drv.Inst.Conn(pin)))
			}
			v = drv.Inst.Master.Function.Eval(args)
		}
		memo[n] = v
		return v
	}

	rng := rand.New(rand.NewSource(seed))
	prev := make(map[*netlist.Net]bool)
	toggles := make(map[*netlist.Net]int)
	for c := 0; c < cycles; c++ {
		for _, name := range names {
			if rng.Float64() < activityFor(name) {
				inputs[inputNet[name]] = !inputs[inputNet[name]]
			}
		}
		memo = make(map[*netlist.Net]bool)
		next := make(map[*netlist.Instance]bool)
		for _, inst := range d.Instances() {
			if inst.Master.Sequential {
				next[inst] = value(inst.Conn(inst.Master.DataPin()))
			}
		}
		state = next
		memo = make(map[*netlist.Net]bool)
		for _, n := range d.Nets() {
			v := value(n)
			if c > 0 && v != prev[n] {
				toggles[n]++
			}
			prev[n] = v
		}
	}

	denom := float64(cycles - 1)
	if denom <= 0 {
		denom = 1
	}
	rates := make(map[*netlist.Net]float64, d.NumNets())
	for _, n := range d.Nets() {
		rates[n] = float64(toggles[n]) / denom
		if clocks[n] {
			rates[n] = 2.0
		}
	}
	return rates
}

// requireReference runs RunRandom and the reference on the same stimulus
// and requires every net's rate to be ==.
func requireReference(t *testing.T, d *netlist.Design, cycles int, seed int64, activityFor func(port string) float64) {
	t.Helper()
	act, err := RunRandom(d, cycles, seed, activityFor)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceActivity(d, cycles, seed, activityFor)
	mismatched := 0
	for _, n := range d.Nets() {
		if got := act.For(n); got != want[n] {
			if mismatched < 5 {
				t.Errorf("net %s: rate %v, reference %v", n.Name, got, want[n])
			}
			mismatched++
		}
	}
	if mismatched > 0 {
		t.Fatalf("%d of %d nets differ from the reference", mismatched, d.NumNets())
	}
}

// TestRunRandomMatchesReference holds the compiled simulator to the
// reference on every scenario family and on the hand-built designs.
func TestRunRandomMatchesReference(t *testing.T) {
	lib := celllib.Default65nm()
	for _, fam := range bench.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", fam, seed), func(t *testing.T) {
				g, err := bench.Scenario{Family: fam, Seed: seed, TargetCells: 1500}.Generate(lib)
				if err != nil {
					t.Fatal(err)
				}
				requireReference(t, g.Design, 64, seed, func(port string) float64 {
					unit, _, _ := strings.Cut(port, "_")
					return g.Workload.ActivityFor(unit)
				})
			})
		}
	}
	// a never toggles but still takes its draw, so b's draws depend on it.
	t.Run("comb", func(t *testing.T) {
		requireReference(t, buildCombDesign(t), 64, 5, func(port string) float64 {
			if port == "a" {
				return 0
			}
			return 0.5
		})
	})
	t.Run("seq", func(t *testing.T) {
		requireReference(t, buildSeqDesign(t), 64, 5, func(string) float64 { return 0.5 })
	})
}

// renamedFlopLib returns Default65nm with the flip-flops' pins renamed,
// the clock CK to CP and the data pin D to DIN, through Liberty-lite text.
func renamedFlopLib(tb testing.TB) *celllib.Library {
	tb.Helper()
	var src strings.Builder
	if err := celllib.WriteLiberty(&src, celllib.Default65nm()); err != nil {
		tb.Fatal(err)
	}
	lib, err := celllib.ParseLiberty(strings.NewReader(strings.NewReplacer("pin(CK)", "pin(CP)", "pin(D)", "pin(DIN)").Replace(src.String())))
	if err != nil {
		tb.Fatal(err)
	}
	return lib
}

// decodeDesign builds a netlist from fuzz input. The first byte picks one
// of libs, the second sets one to four primary inputs, and the next bytes
// give their toggle probabilities in quarters. Each remaining record picks
// a master (every combinational and sequential master) and, per input pin,
// a net among those created earlier: the primary inputs, one undriven net
// and every earlier cell output, so the combinational logic is loop-free.
// A flip-flop's ClockPin byte inserts zero to two BUF or INV stages
// between the clk port and the pin; its DataPin byte may pick any net of the
// finished design, closing feedback loops through the register. It
// returns the design and the probabilities by port name.
func decodeDesign(libs []*celllib.Library, data []byte) (*netlist.Design, map[string]float64, error) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	lib := libs[int(next())%len(libs)]
	var masters []*celllib.Master
	for _, m := range lib.Masters() {
		if !m.Filler {
			masters = append(masters, m)
		}
	}
	d := netlist.NewDesign("fuzz", lib)
	clk, err := d.AddPort("clk", netlist.In)
	if err != nil {
		return nil, nil, err
	}
	probs := make(map[string]float64)
	var nets []*netlist.Net
	for i, n := 0, 1+int(next()%4); i < n; i++ {
		p, err := d.AddPort(fmt.Sprintf("in%d", i), netlist.In)
		if err != nil {
			return nil, nil, err
		}
		probs[p.Name] = float64(next()%5) / 4
		nets = append(nets, p.Net)
	}
	nets = append(nets, d.GetOrCreateNet("floating"))

	// clockChain drives a new net from clk through (b&3)%3 stages, bit 2+k
	// of b choosing INV over BUF for stage k.
	clockChain := func(c int, b byte) (*netlist.Net, error) {
		net := clk.Net
		for k := 0; k < int(b&3)%3; k++ {
			master := "BUF_X1"
			if b>>(2+k)&1 == 1 {
				master = "INV_X1"
			}
			inst, err := d.AddInstance(fmt.Sprintf("ck%d_%d", c, k), master, "")
			if err != nil {
				return nil, err
			}
			out := d.GetOrCreateNet(inst.Name)
			if err := d.Connect(inst, "A", net); err != nil {
				return nil, err
			}
			if err := d.Connect(inst, "Z", out); err != nil {
				return nil, err
			}
			net = out
		}
		return net, nil
	}

	type flop struct {
		inst *netlist.Instance
		d    byte
	}
	var flops []flop
	for c := 0; len(data) > 0 && c < 64; c++ {
		m := masters[int(next())%len(masters)]
		inst, err := d.AddInstance(fmt.Sprintf("u%d", c), m.Name, "")
		if err != nil {
			return nil, nil, err
		}
		for _, pin := range m.Inputs() {
			switch pin {
			case m.ClockPin():
				var ck *netlist.Net
				if ck, err = clockChain(c, next()); err == nil {
					err = d.Connect(inst, pin, ck)
				}
			case m.DataPin():
				flops = append(flops, flop{inst, next()})
			default:
				err = d.Connect(inst, pin, nets[int(next())%len(nets)])
			}
			if err != nil {
				return nil, nil, err
			}
		}
		out := d.GetOrCreateNet(fmt.Sprintf("n%d", c))
		if err := d.Connect(inst, m.OutputPin(), out); err != nil {
			return nil, nil, err
		}
		nets = append(nets, out)
	}
	for _, f := range flops {
		if err := d.Connect(f.inst, f.inst.Master.DataPin(), nets[int(f.d)%len(nets)]); err != nil {
			return nil, nil, err
		}
	}
	return d, probs, nil
}

// FuzzRunRandom holds the compiled simulator to the reference on generated
// netlists with per-input probabilities, cycle counts and seeds, over the
// default library and one whose flip-flop pins are named CP and DIN.
//
//	go test -run NONE -fuzz FuzzRunRandom -fuzztime 30s -fuzzminimizetime 1s ./internal/logicsim/
func FuzzRunRandom(f *testing.F) {
	libs := []*celllib.Library{celllib.Default65nm(), renamedFlopLib(f)}
	var every []byte
	for i := range libs[0].Masters() {
		every = append(every, byte(i), 0, 1, 2)
	}
	f.Add([]byte{0, 3, 4, 2, 0, 1}, uint8(16), int64(1))
	f.Add(append([]byte{0, 3, 4, 2, 0, 1}, every...), uint8(32), int64(2))
	f.Add(append([]byte{1, 1, 2, 3}, every...), uint8(1), int64(21))
	// Renamed pins, an XOR feeding two flip-flops clocked through one BUF
	// and through an INV then a BUF.
	f.Add([]byte{1, 1, 2, 3, 21, 0, 1, 4, 4, 1, 5, 3, 6}, uint8(24), int64(3))
	// Default pins, a flip-flop clocked through one INV.
	f.Add([]byte{0, 0, 4, 4, 3, 5, 6, 0, 3}, uint8(24), int64(4))
	f.Fuzz(func(t *testing.T, data []byte, cycles uint8, seed int64) {
		d, probs, err := decodeDesign(libs, data)
		if err != nil {
			t.Fatal(err)
		}
		requireReference(t, d, 1+int(cycles%48), seed, func(port string) float64 { return probs[port] })
	})
}
