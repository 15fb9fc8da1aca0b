package cli

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
)

func TestLintCircuitCleanAndBroken(t *testing.T) {
	var sb strings.Builder
	if err := LintCircuit(context.Background(), gen.C17(), &sb); err != nil {
		t.Errorf("c17 must pass lint: %v", err)
	}

	dir := t.TempDir()
	stuck := filepath.Join(dir, "stuck.bench")
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nna = NOT(a)\nk = AND(a, na)\nz = OR(b, k)\n"
	if err := os.WriteFile(stuck, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	sb.Reset()
	if _, err := LoadCircuitChecked(context.Background(), stuck, "", true, &sb); err == nil {
		t.Error("expected lint rejection of the stuck-constant circuit")
	}
	if !strings.Contains(sb.String(), "C001") {
		t.Errorf("warning stream missing the constant-line rule: %q", sb.String())
	}

	// Without lint the same file loads fine.
	if _, err := LoadCircuitChecked(context.Background(), stuck, "", false, &sb); err != nil {
		t.Errorf("load without lint: %v", err)
	}
}

// TestLoadCircuitCheckedExitCodes pins the error paths and which exit
// code each travels under: input problems (unreadable file, lint
// rejection) are runtime failures (1), flag misuse is a usage error (2).
func TestLoadCircuitCheckedExitCodes(t *testing.T) {
	dir := t.TempDir()
	stuck := filepath.Join(dir, "stuck.bench")
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nna = NOT(a)\nk = AND(a, na)\nz = OR(b, k)\n"
	if err := os.WriteFile(stuck, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		benchPath string
		genSpec   string
		runLint   bool
		want      int
	}{
		{"nonexistent file", filepath.Join(dir, "missing.bench"), "", false, ExitFailure},
		{"directory as input", dir, "", false, ExitFailure},
		{"lint gate rejects", stuck, "", true, ExitFailure},
		{"both sources", stuck, "c17", false, ExitUsage},
		{"no source", "", "", false, ExitUsage},
		{"unknown generator", "", "frobnicator", false, ExitUsage},
		{"generator precondition", "", "cone:width=1", false, ExitUsage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			_, err := LoadCircuitChecked(context.Background(), tc.benchPath, tc.genSpec, tc.runLint, &sb)
			if err == nil {
				t.Fatal("expected an error")
			}
			if got := ExitCode(err); got != tc.want {
				t.Errorf("ExitCode(%v) = %d, want %d", err, got, tc.want)
			}
		})
	}
}
