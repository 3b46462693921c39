package core

import (
	"fmt"
	"math"
	"strings"
)

// BoundRule identifies one derivation rule of the accuracy lower-bound
// function L (§5–§7): every contribution to the (drel, dcov) decomposition
// — and every answer-stage override of η — is recorded in the plan's
// BoundTrace under its rule name, so a reported η can always be traced
// back to the resolutions and predicates that produced it.
type BoundRule string

// The bound-derivation rules, in the order they usually appear in a trace.
const (
	// RuleOutputResolution contributes an output column's fetch resolution
	// to dcov: every exact answer has a fetched witness within that
	// per-attribute distance (Theorem 5's coverage argument).
	RuleOutputResolution BoundRule = "output-resolution"
	// RuleConstRelaxation contributes a constant predicate's relaxation
	// range to drel: the executor admits values within the fetch
	// resolution of the predicate's attribute.
	RuleConstRelaxation BoundRule = "const-relaxation"
	// RuleConstUnbounded marks a constant predicate over an attribute
	// fetched with unbounded resolution: the executor cannot filter on it
	// at all, so the relevance bound is void (drel = +inf, η = 0).
	RuleConstUnbounded BoundRule = "const-unbounded"
	// RuleJoinHalfSum contributes a join predicate's relaxation tolerance
	// (res(left)+res(right))/2 to drel: the relaxed join σ dis(A,B) ≤ 2r
	// admits sample pairs within res(left)+res(right) of a real match.
	RuleJoinHalfSum BoundRule = "join-half-sum"
	// RuleJoinExactEnforced records that a join whose relaxation tolerance
	// is infinite is enforced exactly by the executor, so it admits no
	// spurious combination and contributes nothing to drel.
	RuleJoinExactEnforced BoundRule = "join-exact-enforced"
	// RuleJoinCoverageVoid is the corrected coverage rule for exactly
	// enforced joins (the PR-6 η-escape fix): when a join column is
	// fetched with unbounded resolution, the covering samples of an exact
	// witness need not satisfy the exact join, so no deterministic
	// coverage bound exists — dcov = +inf and η = 0.
	RuleJoinCoverageVoid BoundRule = "join-coverage-void"
	// RuleJoinFetchCorrelated is the sound exception to the void: the
	// fetch plan draws one side's join column (as a ladder X attribute)
	// directly from the other side's fetched rows, so every fetched row
	// has a fetched join partner by construction and coverage survives.
	RuleJoinFetchCorrelated BoundRule = "join-fetch-correlated"
	// RuleUnionMax combines component bounds of a union element-wise.
	RuleUnionMax BoundRule = "union-max"
	// RuleDiffLeft takes a difference's bounds from Q1; execution refines
	// them into η′ (§6).
	RuleDiffLeft BoundRule = "diff-left-bound"
	// RuleGroupByMinMax records that min/max group-bys inherit the child's
	// bounds unchanged (Corollary 7).
	RuleGroupByMinMax BoundRule = "groupby-minmax-inherit"
	// RuleGroupByDataDep records the honest η = 0 for sum/count/avg
	// group-bys, whose aggregate-value error is data-dependent.
	RuleGroupByDataDep BoundRule = "groupby-data-dependent"
	// RuleExact overrides η to 1: the plan (or the finished execution)
	// computed exact answers.
	RuleExact BoundRule = "exact"
	// RuleTruncated overrides η to 0: fetching was cut short by the budget
	// backstop, so the coverage guarantee is void.
	RuleTruncated BoundRule = "truncated"
	// RuleEtaPrime replaces η with the post-execution refinement η′ of §6
	// for queries with set difference.
	RuleEtaPrime BoundRule = "eta-prime"
)

// BoundStep is one recorded contribution to the bound derivation: the rule
// applied, what it was applied to, the resolutions it consumed and the
// (drel, dcov) candidates it produced.
type BoundStep struct {
	// Rule names the derivation rule.
	Rule BoundRule
	// Leaf is the index in Plan.Leaves of the SPC leaf the rule fired in
	// (distinct leaves in query.SPCLeaves order of first occurrence), or -1
	// for combinator- and answer-level steps.
	Leaf int
	// Subject is the column, predicate or combinator the rule applies to,
	// e.g. "t0.ship" or "t0.pk = t1.pk".
	Subject string
	// Inputs are the fetch resolutions (or bound components) consumed.
	Inputs []float64
	// DRel and DCov are the step's candidate contributions; the bound is
	// the max over all steps. Steps that only annotate (inheritance,
	// overrides) contribute zero.
	DRel, DCov float64
	// Eta, when >= 0, is an override of the final η (exactness,
	// truncation, η′, data-dependent aggregates). -1 means no override.
	Eta float64
	// Note is a one-line human explanation of the rule application.
	Note string
}

// BoundTrace is the full derivation record of a plan's η: every rule
// application in order, plus the resulting decomposition. Request it per
// answer with ExecOptions.ExplainEta (the `beas -explain-eta` flag); the
// plan-level trace is always available on Plan.Trace.
type BoundTrace struct {
	// Steps are the rule applications in derivation order.
	Steps []BoundStep
	// DRel and DCov are the resulting decomposition; Eta is the final
	// bound after every recorded override.
	DRel, DCov, Eta float64
}

// add appends a step; nil-safe so the planner can share one code path
// between traced and untraced bound computation.
func (tr *BoundTrace) add(st BoundStep) {
	if tr == nil {
		return
	}
	tr.Steps = append(tr.Steps, st)
}

// clone returns a deep copy whose steps can be extended with answer-stage
// overrides without mutating the (cached, shared) plan's trace.
func (tr *BoundTrace) clone() *BoundTrace {
	if tr == nil {
		return nil
	}
	cp := *tr
	cp.Steps = append([]BoundStep(nil), tr.Steps...)
	return &cp
}

// fmtRes formats a resolution with +inf spelled out.
func fmtRes(r float64) string {
	if math.IsInf(r, 1) {
		return "+inf"
	}
	return fmt.Sprintf("%.4g", r)
}

// String renders the trace as an aligned text table (what `beas
// -explain-eta` prints).
func (tr *BoundTrace) String() string {
	if tr == nil {
		return "(no bound trace)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "eta = %.4f  (drel = %s, dcov = %s)\n", tr.Eta, fmtRes(tr.DRel), fmtRes(tr.DCov))
	for _, st := range tr.Steps {
		where := "plan"
		if st.Leaf >= 0 {
			where = fmt.Sprintf("leaf %d", st.Leaf)
		}
		ins := make([]string, len(st.Inputs))
		for i, v := range st.Inputs {
			ins[i] = fmtRes(v)
		}
		contrib := ""
		if st.DRel > 0 || st.DCov > 0 {
			contrib = fmt.Sprintf("  -> drel>=%s dcov>=%s", fmtRes(st.DRel), fmtRes(st.DCov))
		}
		if st.Eta >= 0 {
			contrib += fmt.Sprintf("  => eta=%.4f", st.Eta)
		}
		fmt.Fprintf(&b, "  %-7s %-24s %-28s res[%s]%s\n", where, st.Rule, st.Subject, strings.Join(ins, ", "), contrib)
		if st.Note != "" {
			fmt.Fprintf(&b, "          %s\n", st.Note)
		}
	}
	return b.String()
}

// HasRule reports whether any recorded step applied the rule. Tests use it
// to pin the rule behind a bound (the soundness suite checks that an
// inexact plan's void coverage comes from RuleJoinCoverageVoid).
func (tr *BoundTrace) HasRule(rule BoundRule) bool {
	if tr == nil {
		return false
	}
	for _, st := range tr.Steps {
		if st.Rule == rule {
			return true
		}
	}
	return false
}
