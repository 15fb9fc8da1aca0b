package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

const fixtureDir = "../../testdata/lint"

func runText(t *testing.T, path string) (string, bool) {
	t.Helper()
	var sb strings.Builder
	failed, err := run(context.Background(), &sb, config{paths: []string{path}, sevName: "info", failName: "error"})
	if err != nil {
		t.Fatalf("run %s: %v", path, err)
	}
	return sb.String(), failed
}

func TestFixtures(t *testing.T) {
	cases := []struct {
		file     string
		wantRule string
		wantFail bool
	}{
		{"clean.bench", "", false},
		{"stuck.bench", lint.RuleConstantLine, true},
		{"dupcone.bench", lint.RuleDuplicateCone, false},
		{"undriven.bench", lint.RuleUnusedInput, false},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			out, failed := runText(t, filepath.Join(fixtureDir, tc.file))
			if failed != tc.wantFail {
				t.Errorf("failed = %v, want %v\n%s", failed, tc.wantFail, out)
			}
			if tc.wantRule != "" && !strings.Contains(out, tc.wantRule) {
				t.Errorf("output missing rule %s:\n%s", tc.wantRule, out)
			}
		})
	}
}

func TestCleanFixtureHasNoWarnings(t *testing.T) {
	out, _ := runText(t, filepath.Join(fixtureDir, "clean.bench"))
	if strings.Contains(out, "  warning") || strings.Contains(out, "  error") {
		t.Errorf("clean fixture should produce only info findings:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	var sb strings.Builder
	failed, err := run(context.Background(), &sb, config{paths: []string{filepath.Join(fixtureDir, "stuck.bench")}, jsonOut: true, sevName: "info", failName: "error"})
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Error("stuck fixture must fail at -fail error")
	}
	var reports []struct {
		Circuit  string         `json:"circuit"`
		Errors   int            `json:"errors"`
		Findings []lint.Finding `json:"findings"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &reports); err != nil {
		t.Fatalf("JSON output does not parse: %v\n%s", err, sb.String())
	}
	if len(reports) != 1 || reports[0].Circuit != "stuck" || reports[0].Errors == 0 {
		t.Fatalf("unexpected report shape: %+v", reports)
	}
	found := false
	for _, f := range reports[0].Findings {
		if f.Rule == lint.RuleConstantLine && f.Severity == lint.Error && f.Name == "k" {
			found = true
		}
	}
	if !found {
		t.Errorf("JSON output missing %s on signal k:\n%s", lint.RuleConstantLine, sb.String())
	}
}

func TestFailSeverityFlag(t *testing.T) {
	var sb strings.Builder
	failed, err := run(context.Background(), &sb, config{paths: []string{filepath.Join(fixtureDir, "undriven.bench")}, sevName: "info", failName: "warning"})
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Error("undriven fixture must fail at -fail warning")
	}
}

func TestGenSpecAndMultipleInputs(t *testing.T) {
	var sb strings.Builder
	failed, err := run(context.Background(), &sb, config{genSpec: "c17", paths: []string{filepath.Join(fixtureDir, "clean.bench")}, sevName: "info", failName: "error"})
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Errorf("clean inputs must not fail:\n%s", sb.String())
	}
	if got := strings.Count(sb.String(), "finding(s)"); got != 2 {
		t.Errorf("expected 2 report headers, got %d:\n%s", got, sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if _, err := run(context.Background(), &sb, config{sevName: "info", failName: "error"}); err == nil {
		t.Error("expected error with no inputs")
	}
	if _, err := run(context.Background(), &sb, config{paths: []string{"no/such/file.bench"}, sevName: "info", failName: "error"}); err == nil {
		t.Error("expected error for missing file")
	}
	if _, err := run(context.Background(), &sb, config{genSpec: "c17", sevName: "frob", failName: "error"}); err == nil {
		t.Error("expected error for bad severity name")
	}
	bad := filepath.Join(t.TempDir(), "bad.bench")
	if err := os.WriteFile(bad, []byte("z = FROB(a)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), &sb, config{paths: []string{bad}, sevName: "info", failName: "error"}); err == nil {
		t.Error("expected error for malformed bench input")
	}
}

// TestJSONGoldenFile pins the exact -json output for the redundant
// fixture: byte-for-byte stability, including the rule-then-signal
// ordering of findings. Regenerate with:
//
//	go run ./cmd/lint -json -severity info testdata/lint/redundant.bench > testdata/lint/redundant.golden.json
func TestJSONGoldenFile(t *testing.T) {
	var sb strings.Builder
	failed, err := run(context.Background(), &sb, config{paths: []string{filepath.Join(fixtureDir, "redundant.bench")}, jsonOut: true, sevName: "info", failName: "error"})
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Error("redundant fixture has only warnings; must not fail at -fail error")
	}
	want, err := os.ReadFile(filepath.Join(fixtureDir, "redundant.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("JSON output drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", sb.String(), want)
	}
}

// TestJSONFindingsOrdered checks the ordering contract on a fixture
// with findings from several passes: rule ID ascending, then signal.
func TestJSONFindingsOrdered(t *testing.T) {
	var sb strings.Builder
	if _, err := run(context.Background(), &sb, config{paths: []string{filepath.Join(fixtureDir, "stuck.bench")}, jsonOut: true, sevName: "info", failName: "error"}); err != nil {
		t.Fatal(err)
	}
	var reports []struct {
		Findings []lint.Finding `json:"findings"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &reports); err != nil {
		t.Fatal(err)
	}
	fs := reports[0].Findings
	if len(fs) < 2 {
		t.Fatalf("expected several findings, got %d", len(fs))
	}
	for i := 1; i < len(fs); i++ {
		a, b := fs[i-1], fs[i]
		if a.Rule > b.Rule || (a.Rule == b.Rule && a.Signal > b.Signal) {
			t.Errorf("findings out of order at %d: %s/%d before %s/%d", i, a.Rule, a.Signal, b.Rule, b.Signal)
		}
	}
}

// TestImplicationsFlag smoke-tests both renderers of -implications.
func TestImplicationsFlag(t *testing.T) {
	var sb strings.Builder
	if _, err := run(context.Background(), &sb, config{paths: []string{filepath.Join(fixtureDir, "redundant.bench")}, implications: true, sevName: "info", failName: "error"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "implications:") || !strings.Contains(sb.String(), "redundant n1 s-a-0") {
		t.Errorf("text summary missing implication block:\n%s", sb.String())
	}
	sb.Reset()
	if _, err := run(context.Background(), &sb, config{paths: []string{filepath.Join(fixtureDir, "redundant.bench")}, implications: true, jsonOut: true, sevName: "info", failName: "error"}); err != nil {
		t.Fatal(err)
	}
	var reports []struct {
		Implic *struct {
			Learned   int `json:"learned"`
			Redundant []struct {
				Fault string `json:"fault"`
			} `json:"redundant"`
		} `json:"implications"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &reports); err != nil {
		t.Fatal(err)
	}
	if reports[0].Implic == nil || len(reports[0].Implic.Redundant) == 0 {
		t.Errorf("JSON implications summary missing:\n%s", sb.String())
	}
}
