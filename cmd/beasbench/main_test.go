package main

import (
	"bytes"
	"strings"
	"testing"
)

func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFiguresDefaultSubcommand runs one panel with bare flags, the form the
// figures subcommand takes when it is left out.
func TestFiguresDefaultSubcommand(t *testing.T) {
	code, out, errs := runArgs("-tiny", "-fig", "6k")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	if !strings.Contains(out, "Fig 6(k)") || strings.Contains(out, "Fig 6(a)") {
		t.Fatalf("want exactly figure 6k, got:\n%s", out)
	}
}

// TestEtaAuditSubcommand audits one corpus case through the subcommand's
// flags and prints its timing table.
func TestEtaAuditSubcommand(t *testing.T) {
	code, out, errs := runArgs("etaaudit", "-datasets", "corpus", "-alphas", "0.3", "-only", "corpus:3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	for _, want := range []string{"corpus      1 queries", "total", "no violations across 1 checked cases"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestUsageErrors checks that bad invocations exit non-zero before doing
// any work.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"perf"}, 2},
		{[]string{"overload", "-smoke"}, 2},
		{[]string{"overload", "extra"}, 2},
		{[]string{"etaaudit", "-alphas", "x"}, 2},
		{[]string{"figures", "-fig", "6z"}, 1},
	} {
		if code, _, _ := runArgs(tc.args...); code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
	}
}
