// Command lint runs the static netlist analyzer over one or more
// circuits and reports findings: structural hygiene defects, lines proven
// constant (and the stuck-at faults they make untestable), duplicated
// cones, COP-ranked random-pattern-resistant stems, and the fanout-free /
// reconvergence structure that decides which TPI planner applies.
//
// Inputs are positional netlist paths (.bench, or .v/.sv structural
// Verilog) and/or the usual -bench / -gen flags. The exit code is 0 when
// every circuit is clean at the -fail severity, 1 when any finding
// reaches it (default: error), and 2 on bad usage or unreadable input.
//
// Examples:
//
//	lint testdata/lint/stuck.bench
//	lint -json testdata/c17.bench
//	lint -gen rpr:cones=3,width=14 -severity info -top 10
//	lint -fail warning *.bench
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cli"
	"repro/internal/implic"
	"repro/internal/lint"
	"repro/internal/netlist"
)

func main() {
	var (
		benchPath = flag.String("bench", "", "input .bench netlist (alternative to positional paths)")
		genSpec   = flag.String("gen", "", "generator spec (see internal/cli)")
		jsonOut   = flag.Bool("json", false, "emit findings as JSON")
		sevName   = flag.String("severity", "info", "minimum severity to report: info | warning | error")
		failName  = flag.String("fail", "error", "minimum severity that fails the run: info | warning | error")
		top       = flag.Int("top", 0, "hard-stem findings to report (0 = default 5, negative = off)")
		hardTh    = flag.Float64("hard", 0, "COP detect-prob threshold for hard stems (0 = default 1e-3)")
		maxFanout = flag.Int("max-fanout", 0, "flag signals with fanout above this (0 = default 64, negative = off)")
		maxDepth  = flag.Int("max-depth", 0, "flag circuits deeper than this (0 = default 512, negative = off)")
		implics   = flag.Bool("implications", false, "summarise the static implication engine per circuit (learned implications, constants, dominators, redundant faults)")
	)
	flag.Parse()
	failed, err := run(context.Background(), os.Stdout, config{
		benchPath:    *benchPath,
		genSpec:      *genSpec,
		paths:        flag.Args(),
		jsonOut:      *jsonOut,
		sevName:      *sevName,
		failName:     *failName,
		implications: *implics,
		opts: lint.Options{
			MaxFanout:     *maxFanout,
			MaxDepth:      *maxDepth,
			HardThreshold: *hardTh,
			TopStems:      *top,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		// Every run error here is a usage-or-input failure (bad flags,
		// unreadable netlist), which the shared contract maps to 2.
		os.Exit(cli.ExitCode(cli.Usage(err)))
	}
	if failed {
		os.Exit(cli.ExitFailure)
	}
}

// config gathers one invocation's settings.
type config struct {
	benchPath, genSpec string
	paths              []string
	jsonOut            bool
	sevName, failName  string
	implications       bool
	opts               lint.Options
}

// jsonReport is the stable JSON shape emitted per circuit.
type jsonReport struct {
	Circuit  string            `json:"circuit"`
	Errors   int               `json:"errors"`
	Warnings int               `json:"warnings"`
	Infos    int               `json:"infos"`
	Findings []lint.Finding    `json:"findings"`
	Implic   *jsonImplications `json:"implications,omitempty"`
}

// jsonImplications summarises one circuit's implication engine run.
type jsonImplications struct {
	Gates        int             `json:"gates"`
	Implications int             `json:"implications"`
	Learned      int             `json:"learned"`
	Dead         int             `json:"dead"`
	Dominated    int             `json:"dominated"`
	Constants    []string        `json:"constants,omitempty"`
	Redundant    []jsonRedundant `json:"redundant,omitempty"`
}

// jsonRedundant is one statically-proven-untestable fault.
type jsonRedundant struct {
	Fault  string `json:"fault"`
	Reason string `json:"reason"`
}

// analyzed pairs a report with the circuit it came from, which the
// implication summary needs.
type analyzed struct {
	c   *netlist.Circuit
	rep *lint.Report
}

// run lints every requested circuit and reports whether any finding
// reached the failure severity.
func run(ctx context.Context, w io.Writer, cfg config) (bool, error) {
	minSev, err := lint.ParseSeverity(cfg.sevName)
	if err != nil {
		return false, err
	}
	failSev, err := lint.ParseSeverity(cfg.failName)
	if err != nil {
		return false, err
	}
	if cfg.benchPath == "" && cfg.genSpec == "" && len(cfg.paths) == 0 {
		return false, fmt.Errorf("provide netlist paths, -bench <file> or -gen <spec>")
	}

	var circuits []analyzed
	if cfg.benchPath != "" || cfg.genSpec != "" {
		c, err := cli.LoadCircuit(cfg.benchPath, cfg.genSpec)
		if err != nil {
			return false, err
		}
		rep, err := lint.Analyze(ctx, c, cfg.opts)
		if err != nil {
			return false, err
		}
		circuits = append(circuits, analyzed{c, rep})
	}
	for _, p := range cfg.paths {
		c, err := cli.LoadCircuit(p, "")
		if err != nil {
			return false, err
		}
		rep, err := lint.Analyze(ctx, c, cfg.opts)
		if err != nil {
			return false, err
		}
		circuits = append(circuits, analyzed{c, rep})
	}

	failed := false
	var jsonReports []jsonReport
	for _, a := range circuits {
		rep := a.rep
		if s, ok := rep.MaxSeverity(); ok && s >= failSev {
			failed = true
		}
		counts := rep.CountBySeverity()
		var impl *implicSummary
		if cfg.implications {
			if impl, err = summarizeImplications(ctx, a.c); err != nil {
				return false, err
			}
		}
		if cfg.jsonOut {
			findings := rep.Filter(minSev)
			if findings == nil {
				findings = []lint.Finding{}
			}
			// Stable output contract: findings ordered by rule ID, then
			// signal ID, independent of pass ordering and severity.
			sort.SliceStable(findings, func(i, j int) bool {
				if findings[i].Rule != findings[j].Rule {
					return findings[i].Rule < findings[j].Rule
				}
				return findings[i].Signal < findings[j].Signal
			})
			jr := jsonReport{
				Circuit:  rep.Circuit,
				Errors:   counts[lint.Error],
				Warnings: counts[lint.Warning],
				Infos:    counts[lint.Info],
				Findings: findings,
			}
			if impl != nil {
				jr.Implic = impl.json()
			}
			jsonReports = append(jsonReports, jr)
			continue
		}
		fmt.Fprintf(w, "%s: %d finding(s): %d error(s), %d warning(s), %d info\n",
			rep.Circuit, len(rep.Findings), counts[lint.Error], counts[lint.Warning], counts[lint.Info])
		for _, f := range rep.Filter(minSev) {
			fmt.Fprintf(w, "  %s\n", f)
		}
		if impl != nil {
			impl.writeText(w)
		}
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonReports); err != nil {
			return false, err
		}
	}
	return failed, nil
}

// implicSummary carries one circuit's engine results for both renderers.
type implicSummary struct {
	stats     implic.Stats
	constants []string
	redundant []jsonRedundant
	dominated int
}

// summarizeImplications runs the implication engine on the circuit
// under ctx.
func summarizeImplications(ctx context.Context, c *netlist.Circuit) (*implicSummary, error) {
	e, err := implic.NewContext(ctx, c, implic.Options{})
	if err != nil {
		return nil, err
	}
	red, err := e.Redundant(ctx)
	if err != nil {
		return nil, err
	}
	s := &implicSummary{stats: e.Stats()}
	for _, sig := range e.Constants() {
		v, _ := e.ConstValue(sig)
		bit := 0
		if v {
			bit = 1
		}
		s.constants = append(s.constants, fmt.Sprintf("%s=%d", c.GateName(sig), bit))
	}
	for _, r := range red {
		s.redundant = append(s.redundant, jsonRedundant{Fault: r.F.Name(c), Reason: r.Reason})
	}
	for sig := 0; sig < c.NumGates(); sig++ {
		if _, ok := e.Dominator(sig); ok {
			s.dominated++
		}
	}
	return s, nil
}

func (s *implicSummary) json() *jsonImplications {
	return &jsonImplications{
		Gates:        s.stats.Gates,
		Implications: s.stats.Implications,
		Learned:      s.stats.Learned,
		Dead:         s.stats.Dead,
		Dominated:    s.dominated,
		Constants:    s.constants,
		Redundant:    s.redundant,
	}
}

func (s *implicSummary) writeText(w io.Writer) {
	fmt.Fprintf(w, "  implications: %d stored (%d learned) over %d gates; %d constant line(s), %d dead, %d dominated\n",
		s.stats.Implications, s.stats.Learned, s.stats.Gates, s.stats.Constants, s.stats.Dead, s.dominated)
	for _, c := range s.constants {
		fmt.Fprintf(w, "    constant %s\n", c)
	}
	for _, r := range s.redundant {
		fmt.Fprintf(w, "    redundant %s: %s\n", r.Fault, r.Reason)
	}
}
