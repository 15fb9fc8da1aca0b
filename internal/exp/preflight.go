package exp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/gen"
	"repro/internal/lint"
)

// Preflight statically lints the benchmark circuits the experiment suites
// run over (the E1-E3 fanout-free trees, the E4/E5 random-pattern
// -resistant set, and c17), writing warning-and-above findings to w. It
// returns an error when any circuit carries an Error-severity finding, so
// `experiments -lint` refuses to burn a full experiment run on a
// structurally broken workload. The analysis runs under ctx and returns
// its error once ctx is done.
func Preflight(ctx context.Context, cfg Config, w io.Writer) error {
	suite := treeSuite(cfg)
	suite = append(suite, rpSuite(cfg)...)
	suite = append(suite, gen.C17())
	bad := 0
	for _, c := range suite {
		rep, err := lint.Analyze(ctx, c, lint.Options{})
		if err != nil {
			return err
		}
		for _, f := range rep.Filter(lint.Warning) {
			fmt.Fprintf(w, "lint: %s: %s\n", rep.Circuit, f)
		}
		if rep.HasErrors() {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("exp: lint rejected %d experiment circuit(s)", bad)
	}
	return nil
}
