package cli

import (
	"context"
	"fmt"
	"io"

	"repro/internal/lint"
	"repro/internal/netlist"
)

// LintCircuit runs the static analyzer over a freshly loaded circuit on
// behalf of a tool's -lint flag: warning-and-above findings go to w (the
// tool's stderr) and an error is returned when any Error-severity finding
// is present, so malformed inputs are rejected before any simulation or
// planning spends budget on them. The analysis runs under ctx and
// returns its error once ctx is done.
func LintCircuit(ctx context.Context, c *netlist.Circuit, w io.Writer) error {
	rep, err := lint.Analyze(ctx, c, lint.Options{})
	if err != nil {
		return err
	}
	for _, f := range rep.Filter(lint.Warning) {
		fmt.Fprintf(w, "lint: %s: %s\n", rep.Circuit, f)
	}
	if rep.HasErrors() {
		return fmt.Errorf("cli: lint rejected circuit %s: %d error-severity finding(s); run cmd/lint for details",
			rep.Circuit, rep.CountBySeverity()[lint.Error])
	}
	return nil
}

// LoadCircuitChecked is LoadCircuit with opt-in lint validation: when
// runLint is set the loaded circuit passes through LintCircuit, with
// findings written to w.
func LoadCircuitChecked(ctx context.Context, benchPath, genSpec string, runLint bool, w io.Writer) (*netlist.Circuit, error) {
	c, err := LoadCircuit(benchPath, genSpec)
	if err != nil {
		return nil, err
	}
	if runLint {
		if err := LintCircuit(ctx, c, w); err != nil {
			return nil, err
		}
	}
	return c, nil
}
