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

// TestQueryExplainEta answers one SQL query on the smallest TPCH instance
// and prints its bound trace.
func TestQueryExplainEta(t *testing.T) {
	code, out, errs := runArgs("-dataset", "tpch", "-scale", "1", "-alpha", "0.05", "-explain-eta",
		"-sql", "select o.status, count(o.ok) from orders as o group by o.status")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	for _, want := range []string{"dataset TPCH: |D| = ", "plan: class=RAaggr", "accessed ", "bound trace:", "output-resolution", "groupby-data-dependent"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestUsageErrors checks that bad invocations exit 2 before generating
// any data.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-dataset", "nope", "-sql", "select o.ok from orders as o"}, `unknown dataset "nope"`},
		{[]string{"-dataset", "tpch"}, "-sql is required"},
		{[]string{"-scale", "x"}, "invalid value"},
	} {
		code, out, errs := runArgs(tc.args...)
		if code != 2 || out != "" || !strings.Contains(errs, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %q", tc.args, code, out, errs, tc.want)
		}
	}
}
