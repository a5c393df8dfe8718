package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"pathalgebra/internal/core"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/pathset"
)

// ExplainLine is one operator of an explained plan with its estimated and
// actual output cardinality. Fused marks an operator the run answered
// inside its parent, producing no output of its own (Actual is 0).
type ExplainLine struct {
	Depth  int
	Op     string
	Est    float64
	Actual int
	Fused  bool
}

// Explain is the result of Engine.Explain: the chosen physical plan, the
// planner rules that shaped it, whether it came out of the plan cache,
// and the per-operator estimated vs. actual cardinalities. Kernel reports
// the route a path-free Reach call on this plan would take:
// "reach-bitset" when the plan is kernel-eligible and the graph's bitset
// index is feasible, "enumeration" otherwise. (Run always enumerates —
// it returns paths.)
type Explain struct {
	Plan     core.PathExpr
	Applied  []string
	CacheHit bool
	Kernel   string
	Lines    []ExplainLine
	Result   *pathset.Set
}

// Explain plans x like Run, evaluates the chosen plan once under a trace
// span, and annotates the plan tree from the operator spans of that one
// run: each row's actual is the output size of the operator as it ran.
// It does the work of one Run plus the bookkeeping of a traced one.
func (e *Engine) Explain(x core.PathExpr) (*Explain, error) {
	return e.ExplainCtx(context.Background(), x)
}

// ExplainCtx is Explain under cooperative cancellation (see RunCtx). On
// a live engine planning, estimates and the evaluation all run against
// one pinned epoch. When ctx carries a trace span, the evaluation's
// spans join that trace; otherwise Explain traces into a private one.
func (e *Engine) ExplainCtx(ctx context.Context, x core.PathExpr) (*Explain, error) {
	b, release := e.pin()
	defer release()
	ex, err := b.explainCtx(ctx, x)
	e.noteEvalErr(err)
	return ex, err
}

func (e *Engine) explainCtx(ctx context.Context, x core.PathExpr) (*Explain, error) {
	plan, applied, hit := e.plan(x)
	sp := obs.SpanFrom(ctx).Start("eval")
	if sp == nil {
		sp = obs.NewTrace().Start("eval")
	}
	defer sp.End()
	sp.SetInt("epoch", int64(e.epoch))
	out, err := e.evalPathsCtx(obs.WithSpan(ctx, sp), plan)
	if err != nil {
		return nil, err
	}
	ex := &Explain{
		Plan:     plan,
		Applied:  applied,
		CacheHit: hit,
		Kernel:   e.reachRoute(plan),
		Result:   out,
	}
	ex.addLines(e, plan, opChildren(sp.Tree())[0], 0)
	return ex, nil
}

// addLines appends the rows of operator x and its operands. sp is the
// span x ran under, or nil when the run fused x into an ancestor.
// Operands are evaluated left to right, so x's evaluated operands match
// sp's operator children in start order; an operator whose operands
// were fused has none.
func (ex *Explain) addLines(e *Engine, x any, sp *obs.SpanJSON, depth int) {
	op, est, operands := e.opInfo(x)
	line := ExplainLine{Depth: depth, Op: op, Est: est, Fused: sp == nil}
	var ran []*obs.SpanJSON
	if sp != nil {
		line.Actual = int(sp.Attrs["paths"])
		ran = opChildren(sp)
	}
	ex.Lines = append(ex.Lines, line)
	for i, c := range operands {
		var csp *obs.SpanJSON
		if i < len(ran) {
			csp = ran[i]
		}
		ex.addLines(e, c, csp, depth+1)
	}
}

// opChildren lists sp's operator spans, the children carrying an
// estimate (the product search's spans carry none).
func opChildren(sp *obs.SpanJSON) []*obs.SpanJSON {
	var ops []*obs.SpanJSON
	for _, c := range sp.Children {
		if _, ok := c.Attrs["est"]; ok {
			ops = append(ops, c)
		}
	}
	return ops
}

// opInfo describes one plan operator, path- or space-sorted: its
// one-line label without the subtree, the cost model's estimate of its
// output size, and its operands in evaluation order.
func (e *Engine) opInfo(x any) (string, float64, []any) {
	switch x := x.(type) {
	case core.Nodes:
		return "Nodes(G)", e.cm.Card(x), nil
	case core.Edges:
		return "Edges(G)", e.cm.Card(x), nil
	case core.Select:
		return fmt.Sprintf("σ[%s]", x.Cond), e.cm.Card(x), []any{x.In}
	case core.Join:
		return "⋈", e.cm.Card(x), []any{x.L, x.R}
	case core.Union:
		return "∪", e.cm.Card(x), []any{x.L, x.R}
	case core.Recurse:
		op := fmt.Sprintf("ϕ%s", x.Sem)
		if x.Dir == core.Backward {
			op += "←"
		}
		return op, e.cm.Card(x), []any{x.In}
	case core.Restrict:
		return fmt.Sprintf("ρ%s", x.Sem), e.cm.Card(x), []any{x.In}
	case core.Project:
		return fmt.Sprintf("π(%s,%s,%s)", x.Parts, x.Groups, x.Paths), e.cm.Card(x), []any{x.In}
	case core.GroupBy:
		return fmt.Sprintf("γ%s", x.Key), e.cm.Card(x.In), []any{x.In}
	case core.OrderBy:
		_, est, _ := e.opInfo(x.In) // ordering keeps its input's size
		return fmt.Sprintf("τ%s", x.Key), est, []any{x.In}
	default:
		return fmt.Sprintf("%T", x), 0, nil
	}
}

// Format renders the explanation: fired rules, cache state, and the
// operator table with estimated vs. actual cardinalities.
func (ex *Explain) Format() string {
	var sb strings.Builder
	if len(ex.Applied) == 0 {
		sb.WriteString("rules fired: none\n")
	} else {
		fmt.Fprintf(&sb, "rules fired: %s\n", strings.Join(ex.Applied, ", "))
	}
	fmt.Fprintf(&sb, "plan cache: %s\n", map[bool]string{true: "hit", false: "miss"}[ex.CacheHit])
	if ex.Kernel != "" {
		fmt.Fprintf(&sb, "reach kernel: %s\n", ex.Kernel)
	}
	sb.WriteString("operators (estimated vs actual):\n")
	for _, l := range ex.Lines {
		indent := strings.Repeat("  ", l.Depth)
		actual := "fused"
		if !l.Fused {
			actual = strconv.Itoa(l.Actual)
		}
		fmt.Fprintf(&sb, "  %-44s est=%-12s actual=%s\n", indent+l.Op, fmtEst(l.Est), actual)
	}
	return sb.String()
}

// fmtEst renders an estimate compactly and deterministically.
func fmtEst(est float64) string {
	return fmt.Sprintf("%.4g", est)
}
