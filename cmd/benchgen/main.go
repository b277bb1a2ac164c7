// Command benchgen generates the synthetic benchmark circuits used by the
// experiments: a gate-level Verilog-lite netlist composed of arithmetic
// units (the paper's circuit has nine units and about 12,000 cells) plus the
// Liberty-lite cell library it references.
//
// Beyond the fixed paper benchmark, -family selects a seeded scenario
// family: a parameterized generator that scales to a target cell count and
// derives a per-unit workload, reproducibly from the seed.
//
// Usage:
//
//	benchgen -out design.v -lib library.lib             # paper benchmark
//	benchgen -small -out small.v                        # reduced benchmark
//	benchgen -units mult:32,mult:16,alu:32 -out my.v    # custom unit list
//	benchgen -family hotspot-cluster -seed 3 -cells 25000 -out hc25k.v
//	benchgen -families                                  # list families
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/flow"
	"thermplace/internal/netlist"
)

func main() {
	var (
		outPath = flag.String("out", "design.v", "output Verilog-lite netlist path")
		libPath = flag.String("lib", "", "optional output path for the Liberty-lite cell library")
		small   = flag.Bool("small", false, "generate the reduced benchmark instead of the paper-sized one")
		units   = flag.String("units", "", "custom comma-separated unit list, e.g. mult:32,adder:16,alu:8,mac:16,cmp:32,csadd:64")
		family  = flag.String("family", "", "scenario family to generate (see -families); overrides -small/-units")
		seed    = flag.Int64("seed", 1, "scenario RNG seed (with -family)")
		cells   = flag.Int("cells", 12000, "approximate target standard-cell count (with -family)")
		list    = flag.Bool("families", false, "list the scenario families and exit")
		quiet   = flag.Bool("q", false, "suppress the summary printed to stdout")
	)
	flag.Parse()

	if *list {
		for _, f := range bench.Families() {
			fmt.Println(f)
		}
		return
	}

	lib := celllib.Default65nm()
	var (
		design *netlist.Design
		cfg    bench.Config
		wl     *bench.Workload
	)
	if *family != "" {
		fam, err := bench.ParseFamily(*family)
		if err != nil {
			fatal(err)
		}
		gen, err := bench.Scenario{
			Family:      fam,
			Seed:        *seed,
			TargetCells: *cells,
		}.Generate(lib)
		if err != nil {
			fatal(err)
		}
		design, cfg, wl = gen.Design, gen.Config, &gen.Workload
	} else {
		var err error
		cfg, err = buildConfig(*small, *units)
		if err != nil {
			fatal(err)
		}
		design, err = bench.Generate(lib, cfg)
		if err != nil {
			fatal(err)
		}
	}

	out, err := os.Create(*outPath)
	if err != nil {
		fatal(err)
	}
	defer out.Close()
	if err := netlist.WriteVerilog(out, design); err != nil {
		fatal(err)
	}

	if *libPath != "" {
		lf, err := os.Create(*libPath)
		if err != nil {
			fatal(err)
		}
		defer lf.Close()
		if err := celllib.WriteLiberty(lf, lib); err != nil {
			fatal(err)
		}
	}

	if !*quiet {
		fmt.Printf("design   : %s\n", design.Name)
		fmt.Printf("cells    : %d\n", design.NumInstances())
		fmt.Printf("nets     : %d\n", design.NumNets())
		fmt.Printf("cell area: %.1f um^2\n", design.TotalCellArea())
		fmt.Printf("clock    : %.2f GHz\n", flow.DefaultConfig().ClockHz/1e9)
		fmt.Printf("units    :\n")
		for _, u := range design.Units() {
			act := ""
			if wl != nil {
				act = fmt.Sprintf("  activity %.2f", wl.ActivityFor(u))
			}
			fmt.Printf("  %-10s %6d cells%s\n", u, len(design.InstancesInUnit(u)), act)
		}
		if wl != nil {
			fmt.Printf("workload : %s (default activity %.2f, hot units: %s)\n",
				wl.Name, wl.Default, strings.Join(hotUnits(*wl), ", "))
		}
		fmt.Printf("written  : %s\n", *outPath)
		if *libPath != "" {
			fmt.Printf("library  : %s\n", *libPath)
		}
	}
}

// hotUnits lists the workload's explicitly heated units, hottest first.
func hotUnits(wl bench.Workload) []string {
	var names []string
	for u, a := range wl.Activity {
		if a >= 2*wl.Default {
			names = append(names, u)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if wl.Activity[names[i]] != wl.Activity[names[j]] {
			return wl.Activity[names[i]] > wl.Activity[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) == 0 {
		return []string{"none"}
	}
	return names
}

// buildConfig resolves the non-scenario flags into a benchmark
// configuration.
func buildConfig(small bool, units string) (bench.Config, error) {
	switch {
	case units != "":
		cfg := bench.Config{Name: "custom"}
		for i, spec := range strings.Split(units, ",") {
			parts := strings.SplitN(strings.TrimSpace(spec), ":", 2)
			if len(parts) != 2 {
				return cfg, fmt.Errorf("benchgen: unit spec %q must look like kind:width", spec)
			}
			width, err := strconv.Atoi(parts[1])
			if err != nil || width <= 0 {
				return cfg, fmt.Errorf("benchgen: bad width in unit spec %q", spec)
			}
			kind, err := parseKind(parts[0])
			if err != nil {
				return cfg, err
			}
			cfg.Units = append(cfg.Units, bench.UnitSpec{
				Name:  fmt.Sprintf("%s%d_u%d", parts[0], width, i),
				Kind:  kind,
				Width: width,
			})
		}
		return cfg, nil
	case small:
		return bench.SmallConfig(), nil
	default:
		return bench.DefaultConfig(), nil
	}
}

func parseKind(s string) (bench.UnitKind, error) {
	switch strings.ToLower(s) {
	case "mult", "multiplier":
		return bench.KindMultiplier, nil
	case "adder", "add", "rca":
		return bench.KindRippleAdder, nil
	case "csadd", "csa", "carryselect":
		return bench.KindCarrySelectAdder, nil
	case "mac":
		return bench.KindMAC, nil
	case "alu":
		return bench.KindALU, nil
	case "cmp", "comparator":
		return bench.KindComparator, nil
	default:
		return 0, fmt.Errorf("benchgen: unknown unit kind %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgen:", err)
	os.Exit(1)
}
