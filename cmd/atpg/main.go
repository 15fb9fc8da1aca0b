// Command atpg generates a compacted deterministic stuck-at test set for
// a circuit with the PODEM engine, reports redundant faults, and can
// write the vectors to a file in the plain text format (one 0/1 string
// per line) that cmd/faultsim and the library replay.
//
// Examples:
//
//	atpg -bench testdata/c17.bench
//	atpg -gen rca:width=8 -o rca8.vec -dominance
//	atpg -gen rpr:cones=3,width=12 -verify
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/atpg"
	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/pattern"
)

func main() {
	var (
		benchPath = flag.String("bench", "", "input .bench netlist")
		genSpec   = flag.String("gen", "", "generator spec (see internal/cli)")
		outPath   = flag.String("o", "", "write vectors to this file")
		limit     = flag.Int("backtracks", 20000, "PODEM backtrack limit per fault")
		dominance = flag.Bool("dominance", false, "target the dominance-collapsed fault list")
		compact   = flag.Bool("compact", false, "apply static reverse-order compaction to the set")
		verify    = flag.Bool("verify", false, "re-simulate the test set and confirm coverage")
		doLint    = flag.Bool("lint", false, "statically validate the input circuit and reject on lint errors")
		timeout   = flag.Duration("timeout", 0, "abort test generation after this duration (0 = none; expiry exits 3)")
	)
	flag.Parse()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, *benchPath, *genSpec, *outPath, *limit, *dominance, *compact, *verify, *doLint); err != nil {
		fmt.Fprintln(os.Stderr, "atpg:", err)
		code := cli.ExitCode(err)
		if code == cli.ExitDeadline {
			fmt.Fprintln(os.Stderr, "atpg: -timeout expired; any results above are partial")
		}
		os.Exit(code)
	}
}

func run(ctx context.Context, benchPath, genSpec, outPath string, limit int, dominance, compact, verify, doLint bool) error {
	c, err := cli.LoadCircuitChecked(ctx, benchPath, genSpec, doLint, os.Stderr)
	if err != nil {
		return err
	}
	fmt.Println(c)

	var faults []fault.Fault
	if dominance {
		faults = fault.CollapseWithDominance(c)
		fmt.Printf("targets: %d faults (equivalence + dominance collapsed)\n", len(faults))
	} else {
		faults = fault.CollapsedUniverse(c)
		fmt.Printf("targets: %d faults (equivalence collapsed)\n", len(faults))
	}

	ts, err := atpg.GenerateTestsContext(ctx, c, faults, atpg.Options{BacktrackLimit: limit})
	if err != nil {
		// On deadline expiry PODEM returns the test set built so far;
		// report it before exiting so the partial work is not lost.
		if ts != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			done := len(ts.Detected) + len(ts.Redundant) + len(ts.Aborted)
			fmt.Printf("partial test set: %d vectors covering %d/%d processed faults\n",
				len(ts.Vectors), len(ts.Detected), done)
		}
		return err
	}
	if compact {
		before := len(ts.Vectors)
		ts.Vectors = atpg.CompactTests(c, faults, ts.Vectors)
		fmt.Printf("static compaction: %d -> %d vectors\n", before, len(ts.Vectors))
	}
	fmt.Printf("vectors: %d\n", len(ts.Vectors))
	fmt.Printf("detected: %d, redundant: %d, aborted: %d\n",
		len(ts.Detected), len(ts.Redundant), len(ts.Aborted))
	for _, f := range ts.Redundant {
		fmt.Printf("  redundant: %s\n", f.Name(c))
	}
	for _, f := range ts.Aborted {
		fmt.Printf("  aborted:   %s (raise -backtracks?)\n", f.Name(c))
	}

	if verify {
		res, err := fsim.RunContext(ctx, c, faults, pattern.NewVectors(ts.Vectors), fsim.Options{
			MaxPatterns: len(ts.Vectors) + 64,
			DropFaults:  true,
		})
		if err != nil {
			return err
		}
		want := len(faults) - len(ts.Redundant) - len(ts.Aborted)
		fmt.Printf("verification: test set detects %d faults (expected >= %d): %v\n",
			len(res.FirstDetect), want, len(res.FirstDetect) >= want)
	}

	if outPath != "" {
		if err := cli.WriteFile(outPath, func(w io.Writer) error {
			return pattern.WriteVectorText(w, ts.Vectors)
		}); err != nil {
			return err
		}
		fmt.Printf("vectors written to %s\n", outPath)
	}
	return nil
}
