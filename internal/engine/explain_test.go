package engine

import (
	"fmt"
	"testing"

	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

// explainQueries cover every operator Explain renders: selectors (π, τ,
// γ), seeded and backward recursions, joins and unions of patterns.
var explainQueries = []string{
	`MATCH ANY SHORTEST TRAIL p = (?x:Person)-[:Knows+]->(?y)`,
	`MATCH TRAIL p = (?x)-[:Likes+]->(?y:Message)`,
	`MATCH SHORTEST 2 GROUP TRAIL p = (?x)-[:Knows+]->(?y)`,
	`MATCH WALK p = (?x {name:"Moe"})-[:Knows|(:Knows/:Knows)]->(?y)`,
	`MATCH SIMPLE p = (?x {name:"Moe"})-[(:Knows+)|(:Likes/:Has_creator)+]->(?y {name:"Apu"})`,
}

// ringGraph is a Start node feeding a directed ring of n Knows edges:
// from Start there is exactly one walk of each length, while the ring as
// a whole holds n walks of each length.
func ringGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	b.AddNode("s", "Start", nil)
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("r%d", i), "Ring", nil)
	}
	b.AddEdge("e", "s", "r0", ldbc.LabelKnows, nil)
	for i := 0; i < n; i++ {
		b.AddEdge(fmt.Sprintf("k%d", i), fmt.Sprintf("r%d", i), fmt.Sprintf("r%d", (i+1)%n), ldbc.LabelKnows, nil)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestExplainSeededRingWithinBudget: the seeded σ∘ϕ plan answers 50
// paths from Start, but its ϕ alone holds 10,050 walks on the ring. An
// Explain that evaluated the ϕ subtree on its own would exhaust
// MaxPaths; annotating the one real run must not.
func TestExplainSeededRingWithinBudget(t *testing.T) {
	plan, err := compileQuery(`MATCH WALK p = (?x:Start)-[:Knows+]->(?y)`)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ringGraph(t, 200), Options{Limits: core.Limits{MaxLen: 50, MaxPaths: 1000}})
	want, err := e.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 50 {
		t.Fatalf("Run: %d paths, want 50", want.Len())
	}
	ex, err := e.Explain(plan)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if got, wantS := ex.Result.Format(e.Graph()), want.Format(e.Graph()); got != wantS {
		t.Errorf("Explain result differs from Run:\n%s\nwant:\n%s", got, wantS)
	}
	if l := ex.Lines[0]; l.Fused || l.Actual != 50 {
		t.Errorf("root row = %+v, want actual 50", l)
	}
	for _, l := range ex.Lines[1:] {
		if !l.Fused {
			t.Errorf("row %q under the seeded σ ran on its own (actual %d)", l.Op, l.Actual)
		}
	}
}

// TestExplainEvaluatesOnce pins "one evaluation": an Explain call moves
// the produced-paths and recursion counters by exactly what one Run of
// the same plan moves them.
func TestExplainEvaluatesOnce(t *testing.T) {
	for _, q := range explainQueries {
		plan, err := compileQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		run := New(ldbc.Figure1(), Options{Limits: core.Limits{MaxLen: 4}})
		if _, err := run.Run(plan); err != nil {
			t.Fatal(err)
		}
		explain := New(ldbc.Figure1(), Options{Limits: core.Limits{MaxLen: 4}})
		if _, err := explain.Explain(plan); err != nil {
			t.Fatal(err)
		}
		r, x := run.Stats(), explain.Stats()
		if x.PathsProduced != r.PathsProduced || x.Recursions != r.Recursions {
			t.Errorf("%s: Explain moved paths=%d recursions=%d, Run moved paths=%d recursions=%d",
				q, x.PathsProduced, x.Recursions, r.PathsProduced, r.Recursions)
		}
	}
}

// TestExplainActualsMatchSubtrees: with the fused routes (label index,
// expansion, seeding) switched off every operator runs on its own, so
// each row's actual must equal the size of its subtree evaluated alone —
// the span-to-row matching is checked against independent evaluation.
func TestExplainActualsMatchSubtrees(t *testing.T) {
	e := New(ldbc.Figure1(), Options{
		Limits: core.Limits{MaxLen: 4}, DisableExpand: true, DisableLabelIndex: true,
	})
	for _, q := range explainQueries {
		plan, err := compileQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := e.Explain(plan)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		var walk func(x any)
		walk = func(x any) {
			switch x := x.(type) {
			case core.PathExpr:
				s, err := e.EvalPaths(x)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, s.Len())
			case core.SpaceExpr:
				ss, err := e.EvalSpace(x)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, ss.NumPaths())
			}
			_, _, operands := e.opInfo(x)
			for _, c := range operands {
				walk(c)
			}
		}
		walk(ex.Plan)
		if len(ex.Lines) != len(want) {
			t.Fatalf("%s: %d rows, want %d", q, len(ex.Lines), len(want))
		}
		for i, l := range ex.Lines {
			if l.Fused || l.Actual != want[i] {
				t.Errorf("%s: row %d %q = %+v, want actual %d", q, i, l.Op, l, want[i])
			}
		}
	}
}
