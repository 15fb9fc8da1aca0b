package implic

import (
	"context"

	"repro/internal/netlist"
)

// Cancellation of the engine build. Constructing the database is the
// expensive phase — a dominator fixpoint plus LearnRounds+1 implication
// sweeps over every literal — and it runs on the serve request path:
// /v1/lint's static rules, the hybrid /v1/plan pre-prune and /v1/atpg
// with learned-implication pruning all build an engine under the request
// context, then run the redundancy sweep (Redundant) under it too. The
// dominator fixpoint and the propagation worklist check the build
// context; the first error sticks in Engine.err and every loop above
// them unwinds on it. Queries after a build never see its context.

// NewContext builds the engine like New but honors ctx: once ctx is done
// the build stops and returns a nil engine and ctx.Err().
func NewContext(ctx context.Context, c *netlist.Circuit, opts Options) (*Engine, error) {
	e := build(ctx, c, opts)
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// stopped checks the build context and reports whether the build must
// unwind, keeping the first context error in e.err. After the build
// e.ctx is nil and it never stops.
func (e *Engine) stopped() bool {
	if e.err == nil && e.ctx != nil {
		e.err = e.ctx.Err()
	}
	return e.err != nil
}
