package engine

import (
	"fmt"
	"testing"

	"pathalgebra/internal/core"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

func TestPlanCacheHit(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{Limits: core.Limits{MaxLen: 4}})
	plan := gql.MustCompile(`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`)

	want, err := e.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.PlanCacheHits != 0 || s.PlanCacheMisses != 1 {
		t.Fatalf("after first run: hits=%d misses=%d, want 0/1", s.PlanCacheHits, s.PlanCacheMisses)
	}
	got, err := e.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	s = e.Stats()
	if s.PlanCacheHits != 1 || s.PlanCacheMisses != 1 {
		t.Fatalf("after second run: hits=%d misses=%d, want 1/1", s.PlanCacheHits, s.PlanCacheMisses)
	}
	if !got.Equal(want) {
		t.Fatalf("cached plan returned a different result: %d vs %d paths", got.Len(), want.Len())
	}
}

// TestPlanCacheNormalization: different spellings of the same logical
// plan share one cache slot because the key is the canonical rendering.
func TestPlanCacheNormalization(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{Limits: core.Limits{MaxLen: 4}})
	a := gql.MustCompile(`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`)
	b := gql.MustCompile("MATCH  TRAIL   p = (?x)-[ :Knows+ ]->(?y)")
	if _, err := e.Run(a); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(b); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.PlanCacheHits != 1 {
		t.Errorf("whitespace-variant query should hit the cache: %+v", s)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{Limits: core.Limits{MaxLen: 3}})
	e.plans = newPlanCache(2)
	plans := []core.PathExpr{
		gql.MustCompile(`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`),
		gql.MustCompile(`MATCH ACYCLIC p = (?x)-[:Likes+]->(?y)`),
		gql.MustCompile(`MATCH SIMPLE p = (?x)-[:Has_creator+]->(?y)`),
	}
	for _, p := range plans {
		if _, err := e.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.plans.Len(); got != 2 {
		t.Fatalf("cache size = %d, want 2", got)
	}
	// The first plan was evicted; re-running it must miss.
	misses := e.Stats().PlanCacheMisses
	if _, err := e.Run(plans[0]); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().PlanCacheMisses; got != misses+1 {
		t.Errorf("evicted plan should miss: misses %d → %d", misses, got)
	}
}

// TestSeededSelectMatchesGeneric: σ with endpoint conditions over a
// pattern recursion evaluates seeded, and the result — including order —
// matches the generic evaluate-then-filter route.
func TestSeededSelectMatchesGeneric(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 12, Messages: 6, KnowsPerPerson: 2, LikesPerPerson: 2,
		CycleFraction: 0.4, Seed: 5,
	})
	lim := core.Limits{MaxLen: 4}
	queries := []struct {
		q string
		// expectSeeded: the condition has first-node conjuncts, so the
		// unplanned forward evaluation can seed. A last-only condition
		// seeds only after the planner flips the search backward.
		expectSeeded bool
	}{
		{`MATCH TRAIL p = (?x:Person)-[:Knows+]->(?y)`, true},
		{`MATCH ACYCLIC p = (?x:Person)-[:Knows+]->(?y:Person)`, true},
		{`MATCH SIMPLE p = (?x)-[:Likes+]->(?y:Message)`, false},
		{`MATCH SHORTEST p = (?x:Person)-[(:Knows|:Likes)+]->(?y)`, true},
	}
	for _, tc := range queries {
		q := tc.q
		plan := gql.MustCompile(q)
		fast := New(g, Options{Limits: lim})
		a, err := fast.EvalPaths(plan)
		if err != nil {
			t.Fatalf("%s seeded: %v", q, err)
		}
		slow := New(g, Options{Limits: lim, DisableExpand: true, Join: NestedLoop})
		b, err := slow.EvalPaths(plan)
		if err != nil {
			t.Fatalf("%s generic: %v", q, err)
		}
		if !a.Equal(b) {
			t.Fatalf("%s: seeded %d vs generic %d paths", q, a.Len(), b.Len())
		}
		// Order identity holds against the same executor without seeding:
		// expand the recursion over every source, then filter — the route
		// the engine takes when the condition has no endpoint conjuncts.
		sel, ok := plan.(core.Select)
		if !ok {
			t.Fatalf("%s: compiled plan is not a selection", q)
		}
		unseeded := New(g, Options{Limits: lim})
		inner, err := unseeded.EvalPaths(sel.In)
		if err != nil {
			t.Fatalf("%s unseeded: %v", q, err)
		}
		want := core.EvalSelect(g, sel.Cond, inner)
		if a.Len() != want.Len() {
			t.Fatalf("%s: seeded %d vs filter-after %d paths", q, a.Len(), want.Len())
		}
		for i, p := range a.Paths() {
			if !p.Equal(want.At(i)) {
				t.Fatalf("%s: path %d differs between seeded and filter-after evaluation", q, i)
			}
		}
		if tc.expectSeeded && fast.Stats().SeededRecursions == 0 {
			t.Errorf("%s: expected a seeded recursion", q)
		}
	}
}

// TestEngineRunsBackwardPlan: the planner-chosen backward plan produces
// the same set as the planner-off engine on a fan-in workload.
func TestEngineRunsBackwardPlan(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 40; i++ {
		b.AddNode(fmt.Sprintf("p%d", i), "Person", nil)
	}
	b.AddNode("m0", "Message", nil)
	b.AddNode("m1", "Message", nil)
	for i := 0; i < 40; i++ {
		b.AddEdge(fmt.Sprintf("e%d", i), fmt.Sprintf("p%d", i), fmt.Sprintf("m%d", i%2), "Likes", nil)
	}
	g := b.MustBuild()
	lim := core.Limits{MaxLen: 4}
	plan := gql.MustCompile(`MATCH TRAIL p = (?x)-[:Likes+]->(?y:Message)`)

	on := New(g, Options{Limits: lim})
	got, err := on.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if on.Stats().BackwardRecursions == 0 {
		t.Errorf("planner should have picked backward evaluation (stats %+v)", on.Stats())
	}
	off := New(g, Options{Limits: lim, DisablePlanner: true})
	want, err := off.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("backward plan: %d paths, planner-off %d", got.Len(), want.Len())
	}
}

// TestPlanCacheKeyedByLimits: views of one engine under different limits
// plan separately (the cost model reads the limits), share one cache and
// one set of counters, and a view under the base limits is the base.
func TestPlanCacheKeyedByLimits(t *testing.T) {
	g := ldbc.Figure1()
	base := New(g, Options{Limits: core.Limits{MaxLen: 4}})
	plan := gql.MustCompile(`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`)
	short := base.WithLimits(core.Limits{MaxLen: 2})

	for i, step := range []struct {
		e       *Engine
		wantHit bool
	}{
		{base, false},
		{short, false}, // same text, other limits: a slot of its own
		{base, true},
		{short, true},
		{base.WithLimits(core.Limits{MaxLen: 2}), true}, // equal limits, fresh view
	} {
		_, _, hit := step.e.plan(plan)
		if hit != step.wantHit {
			t.Fatalf("step %d: hit = %v, want %v", i, hit, step.wantHit)
		}
	}
	if st := base.Stats(); st.PlanCacheHits != 3 || st.PlanCacheMisses != 2 {
		t.Fatalf("shared counters: hits=%d misses=%d, want 3/2", st.PlanCacheHits, st.PlanCacheMisses)
	}
	if got := base.plans.Len(); got != 2 {
		t.Fatalf("cache holds %d plans, want 2", got)
	}
	if base.WithLimits(core.Limits{MaxLen: 4}) != base {
		t.Fatal("a view under the engine's own limits should be the engine itself")
	}
	if got := short.CostModel().Limits; got != (core.Limits{MaxLen: 2}) {
		t.Fatalf("view cost model limits = %+v", got)
	}

	// The view evaluates under its limits.
	res, err := short.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Paths() {
		if p.Len() > 2 {
			t.Fatalf("view under MaxLen 2 produced a path of length %d", p.Len())
		}
	}
}
