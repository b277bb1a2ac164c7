// Package thermplace reproduces "Post-placement Temperature Reduction
// Techniques" (Liu, Nannarelli, Calimera, Macii, Poncino — DATE 2010):
// post-placement whitespace-allocation techniques (Empty Row Insertion and
// Hotspot Wrapper) that lower peak on-chip temperature by reducing power
// density exactly where the thermal hotspots are, together with every
// substrate the paper's flow depends on — a synthetic 65 nm cell library and
// benchmark generator, a gate-level logic simulator for switching activity,
// a power estimator, a row-based placer, a steady-state 3-D RC thermal
// simulator with a SPICE-like resistive-network solver, hotspot detection,
// static timing analysis and congestion estimation.
//
// The implementation lives under internal/; the command-line tools under
// cmd/ (benchgen, thermflow, reproduce, thermserve) and the runnable examples
// under examples/ are the intended entry points. cmd/reproduce regenerates
// every table and figure of the paper's evaluation; perfbench/ is the
// benchmark of record, and bench_test.go at this level holds ablation and
// layer micro-benchmarks. See README.md for the quickstart, package map,
// solver architecture and design notes.
package thermplace
