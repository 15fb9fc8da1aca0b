package tpi

import (
	"context"

	"repro/internal/fault"
	"repro/internal/implic"
	"repro/internal/netlist"
)

// pruneGateLimit bounds the circuit size for the static pre-prune; the
// implication engine's learning sweep is roughly quadratic in gate
// count, while the planners themselves stay near-linear.
const pruneGateLimit = 4096

// PruneFaults removes the faults that the static implication engine
// (internal/implic) proves untestable: no test point placement can ever
// detect them, so scoring candidate sites against them only dilutes the
// planners' coverage model. Returns the kept faults and how many were
// pruned. Circuits above the internal gate limit are returned unchanged.
func PruneFaults(c *netlist.Circuit, faults []fault.Fault) ([]fault.Fault, int) {
	return uncancelled(pruneFaults(context.Background(), c, faults))
}

// uncancelled drops the error of a prune run under a context that is
// never done (cancellation is the prune's only error source), so
// PruneFaults stays the single-return compat wrapper G003 sanctions.
func uncancelled(kept []fault.Fault, pruned int, _ error) ([]fault.Fault, int) {
	return kept, pruned
}

// pruneFaults is PruneFaults under ctx: the implication engine build
// and the redundancy sweep check it, and the prune returns ctx's error
// once it is done.
func pruneFaults(ctx context.Context, c *netlist.Circuit, faults []fault.Fault) ([]fault.Fault, int, error) {
	if c.NumGates() > pruneGateLimit {
		return faults, 0, nil
	}
	e, err := implic.NewContext(ctx, c, implic.Options{})
	if err != nil {
		return nil, 0, err
	}
	red, err := e.Redundant(ctx)
	if err != nil {
		return nil, 0, err
	}
	if len(red) == 0 {
		return faults, 0, nil
	}
	drop := make(map[fault.Fault]bool, len(red))
	for _, r := range red {
		drop[r.F] = true
	}
	kept := make([]fault.Fault, 0, len(faults))
	for _, f := range faults {
		if !drop[f] {
			kept = append(kept, f)
		}
	}
	return kept, len(faults) - len(kept), nil
}
