package fsim

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/pattern"
)

func TestParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		c := gen.RandomDAG(seed, 12, 150, gen.DAGOptions{})
		faults := fault.CollapsedUniverse(c)
		opts := Options{MaxPatterns: 2048, DropFaults: true}
		serial, err := Run(c, faults, pattern.NewLFSR(3), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := RunParallel(context.Background(), c, faults, func() pattern.Source { return pattern.NewLFSR(3) }, workers, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(par.FirstDetect) != len(serial.FirstDetect) {
				t.Fatalf("seed %d workers %d: %d detections vs %d serial",
					seed, workers, len(par.FirstDetect), len(serial.FirstDetect))
			}
			for f, idx := range serial.FirstDetect {
				if par.FirstDetect[f] != idx {
					t.Errorf("seed %d workers %d: %s first detect %d vs %d",
						seed, workers, f.Name(c), par.FirstDetect[f], idx)
				}
			}
			if par.Patterns != serial.Patterns {
				t.Errorf("seed %d workers %d: patterns %d vs %d", seed, workers, par.Patterns, serial.Patterns)
			}
		}
	}
}

func TestParallelCountDetections(t *testing.T) {
	c := gen.C17()
	faults := fault.CollapsedUniverse(c)
	opts := Options{MaxPatterns: 512, DropFaults: false, CountDetections: true}
	serial, err := Run(c, faults, pattern.NewLFSR(9), opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(context.Background(), c, faults, func() pattern.Source { return pattern.NewLFSR(9) }, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	for f, n := range serial.DetectCount {
		if par.DetectCount[f] != n {
			t.Errorf("%s: count %d vs serial %d", f.Name(c), par.DetectCount[f], n)
		}
	}
}

func TestParallelMoreWorkersThanFaults(t *testing.T) {
	c := gen.C17()
	faults := fault.CollapsedUniverse(c)[:3]
	par, err := RunParallel(context.Background(), c, faults, func() pattern.Source { return pattern.NewLFSR(1) }, 64,
		Options{MaxPatterns: 128, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Faults) != 3 {
		t.Errorf("faults = %d", len(par.Faults))
	}
}

func TestParallelDefaultWorkers(t *testing.T) {
	c := gen.C17()
	faults := fault.CollapsedUniverse(c)
	if _, err := RunParallel(context.Background(), c, faults, func() pattern.Source { return pattern.NewLFSR(1) }, 0,
		Options{MaxPatterns: 128, DropFaults: true}); err != nil {
		t.Fatal(err)
	}
}
