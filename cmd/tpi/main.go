// Command tpi plans and inserts test points into a combinational circuit.
//
// Modes:
//
//	-mode cuts    P1: full test points minimising the minimax test count
//	              (fanout-free circuits; exact DP, or -planner greedy)
//	-mode observe P2: observation points maximising faults over -dth
//	-mode hybrid  control points + observation points, then fault
//	              simulation before/after
//
// Examples:
//
//	tpi -gen tree:leaves=100 -mode cuts -k 6
//	tpi -gen rpr:cones=3,width=14,glue=120 -mode hybrid -cp 4 -op 6
//	tpi -bench testdata/c17.bench -mode observe -k 2 -dth 0.01
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/pattern"
	"repro/internal/tpi"
)

func main() {
	var (
		benchPath = flag.String("bench", "", "input .bench netlist")
		genSpec   = flag.String("gen", "", "generator spec (see internal/cli)")
		mode      = flag.String("mode", "hybrid", "cuts | observe | hybrid")
		planner   = flag.String("planner", "dp", "dp | greedy | random (cuts/observe modes)")
		k         = flag.Int("k", 4, "test point budget (cuts/observe modes)")
		nCP       = flag.Int("cp", 4, "control point budget (hybrid mode)")
		nOP       = flag.Int("op", 6, "observation point budget (hybrid mode)")
		dth       = flag.Float64("dth", 0, "detection probability threshold (0 = 4/patterns)")
		patterns  = flag.Int("patterns", 32768, "random patterns for validation")
		seed      = flag.Uint64("seed", 0xbadc0de, "LFSR seed for validation")
		outPath   = flag.String("o", "", "write the modified circuit as .bench")
		doLint    = flag.Bool("lint", false, "statically validate the input circuit and reject on lint errors")
		timeout   = flag.Duration("timeout", 0, "abort planning/simulation after this duration (0 = none; expiry exits 3)")
	)
	flag.Parse()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, *benchPath, *genSpec, *mode, *planner, *k, *nCP, *nOP, *dth, *patterns, *seed, *outPath, *doLint); err != nil {
		fmt.Fprintln(os.Stderr, "tpi:", err)
		code := cli.ExitCode(err)
		if code == cli.ExitDeadline {
			fmt.Fprintln(os.Stderr, "tpi: -timeout expired; any results above are partial")
		}
		os.Exit(code)
	}
}

func run(ctx context.Context, benchPath, genSpec, mode, planner string, k, nCP, nOP int, dth float64, patterns int, seed uint64, outPath string, doLint bool) error {
	c, err := cli.LoadCircuitChecked(ctx, benchPath, genSpec, doLint, os.Stderr)
	if err != nil {
		return err
	}
	fmt.Println(c)
	if dth == 0 {
		dth = 4.0 / float64(patterns)
	}
	faults := fault.CollapsedUniverse(c)
	fmt.Printf("collapsed faults: %d\n", len(faults))

	var modified *netlist.Circuit
	switch mode {
	case "cuts":
		var plan *tpi.CutPlan
		switch planner {
		case "dp":
			plan, err = tpi.PlanCutsDPContext(ctx, c, k)
		case "greedy":
			plan, err = tpi.PlanCutsGreedy(c, k)
		case "random":
			plan, err = tpi.PlanCutsRandom(c, k, int64(seed))
		default:
			return fmt.Errorf("unknown planner %q", planner)
		}
		if err != nil {
			return err
		}
		fmt.Printf("base test count: %d\n", plan.BaseCost)
		fmt.Printf("after %d cut(s): %d (states visited: %d)\n", len(plan.Cuts), plan.MaxCost, plan.StatesVisited)
		for _, s := range plan.Cuts {
			fmt.Printf("  cut at %s\n", c.GateName(s))
		}
		modified, err = c.InsertTestPoints(plan.TestPoints())
		if err != nil {
			return err
		}
	case "observe":
		var plan *tpi.OPPlan
		switch planner {
		case "dp":
			plan, err = tpi.PlanObservationPointsDPContext(ctx, c, faults, k, dth, tpi.OPOptions{})
		case "greedy":
			plan, err = tpi.PlanObservationPointsGreedy(c, faults, k, dth, tpi.OPOptions{})
		case "random":
			plan, err = tpi.PlanObservationPointsRandom(c, faults, k, dth, int64(seed), tpi.OPOptions{})
		default:
			return fmt.Errorf("unknown planner %q", planner)
		}
		if err != nil {
			return err
		}
		fmt.Printf("faults over threshold %.2e: %d/%d before, %d/%d after\n",
			dth, plan.CoveredBefore, plan.TotalFaults, plan.CoveredAfter, plan.TotalFaults)
		for _, s := range plan.Points {
			fmt.Printf("  observe %s\n", c.GateName(s))
		}
		modified, err = c.InsertTestPoints(plan.TestPoints())
		if err != nil {
			return err
		}
		if err := report(ctx, c, modified, faults, patterns, seed); err != nil {
			return err
		}
	case "hybrid":
		plan, err := tpi.PlanHybridContext(ctx, c, faults, nCP, nOP, dth, tpi.CPOptions{}, tpi.OPOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("control points: %d, observation points: %d\n", len(plan.Control.Points), len(plan.Observe.Points))
		for _, p := range plan.Control.Points {
			fmt.Printf("  %s at signal %d\n", p.Kind, p.Signal)
		}
		for _, s := range plan.Observe.Points {
			fmt.Printf("  observe signal %d\n", s)
		}
		modified = plan.Modified
		if err := report(ctx, c, modified, faults, patterns, seed); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}

	if outPath != "" {
		if err := cli.WriteFile(outPath, func(w io.Writer) error {
			return writeBench(w, modified)
		}); err != nil {
			return err
		}
		fmt.Printf("modified circuit written to %s\n", outPath)
	}
	return nil
}

// report fault-simulates original and modified circuits and prints the
// coverage uplift.
func report(ctx context.Context, orig, mod *netlist.Circuit, faults []fault.Fault, patterns int, seed uint64) error {
	before, err := fsim.RunContext(ctx, orig, faults, pattern.NewLFSR(seed), fsim.Options{MaxPatterns: patterns, DropFaults: true})
	if err != nil {
		return err
	}
	after, err := fsim.RunContext(ctx, mod, faults, pattern.NewLFSR(seed), fsim.Options{MaxPatterns: patterns, DropFaults: true})
	if err != nil {
		return err
	}
	fmt.Printf("fault coverage @%d patterns: %.4f -> %.4f (undetected %d -> %d)\n",
		patterns, before.Coverage(), after.Coverage(),
		len(faults)-len(before.FirstDetect), len(faults)-len(after.FirstDetect))
	return nil
}
