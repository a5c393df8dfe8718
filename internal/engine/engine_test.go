package engine

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
	"pathalgebra/internal/rpq"
)

func knowsSel() core.Select {
	return core.Select{Cond: cond.Label(cond.EdgeAt(1), ldbc.LabelKnows), In: core.Edges{}}
}

func TestAtoms(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{})
	nodes, err := e.EvalPaths(core.Nodes{})
	if err != nil || nodes.Len() != 7 {
		t.Fatalf("Nodes = %d, %v; want 7", nodes.Len(), err)
	}
	edges, err := e.EvalPaths(core.Edges{})
	if err != nil || edges.Len() != 11 {
		t.Fatalf("Edges = %d, %v; want 11", edges.Len(), err)
	}
	if e.Graph() != g {
		t.Error("Graph() accessor")
	}
}

// TestEngineMatchesReference cross-checks every operator against the
// reference implementations in internal/core on randomized plans.
func TestEngineMatchesReference(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 10, Messages: 6, KnowsPerPerson: 2, LikesPerPerson: 1,
		CycleFraction: 0.5, Seed: 3,
	})
	lim := core.Limits{MaxLen: 4}

	// referenceEval is a direct recursive evaluator over core's
	// definitional operators.
	var referenceEval func(x core.PathExpr) (*pathset.Set, error)
	var referenceSpace func(x core.SpaceExpr) (*core.SolutionSpace, error)
	referenceEval = func(x core.PathExpr) (*pathset.Set, error) {
		switch x := x.(type) {
		case core.Nodes:
			return core.EvalNodes(g), nil
		case core.Edges:
			return core.EvalEdges(g), nil
		case core.Select:
			in, err := referenceEval(x.In)
			if err != nil {
				return nil, err
			}
			return core.EvalSelect(g, x.Cond, in), nil
		case core.Join:
			l, err := referenceEval(x.L)
			if err != nil {
				return nil, err
			}
			r, err := referenceEval(x.R)
			if err != nil {
				return nil, err
			}
			return core.EvalJoin(l, r), nil
		case core.Union:
			l, err := referenceEval(x.L)
			if err != nil {
				return nil, err
			}
			r, err := referenceEval(x.R)
			if err != nil {
				return nil, err
			}
			return core.EvalUnion(l, r), nil
		case core.Recurse:
			in, err := referenceEval(x.In)
			if err != nil {
				return nil, err
			}
			return core.EvalRecurse(x.Sem, in, lim)
		case core.Project:
			ss, err := referenceSpace(x.In)
			if err != nil {
				return nil, err
			}
			return core.EvalProject(x.Parts, x.Groups, x.Paths, ss), nil
		default:
			t.Fatalf("unexpected expr %T", x)
			return nil, nil
		}
	}
	referenceSpace = func(x core.SpaceExpr) (*core.SolutionSpace, error) {
		switch x := x.(type) {
		case core.GroupBy:
			in, err := referenceEval(x.In)
			if err != nil {
				return nil, err
			}
			return core.EvalGroupBy(x.Key, in), nil
		case core.OrderBy:
			in, err := referenceSpace(x.In)
			if err != nil {
				return nil, err
			}
			return core.EvalOrderBy(x.Key, in), nil
		default:
			t.Fatalf("unexpected space expr %T", x)
			return nil, nil
		}
	}

	queries := []string{
		`MATCH WALK p = (?x)-[:Knows]->(?y)`,
		`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`,
		`MATCH ACYCLIC p = (?x)-[(:Likes/:Has_creator)+]->(?y)`,
		`MATCH SIMPLE p = (?x)-[:Knows+|:Likes]->(?y)`,
		`MATCH SHORTEST p = (?x)-[:Knows+]->(?y)`,
		`MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)`,
		`MATCH ALL SHORTEST ACYCLIC p = (?x)-[:Knows+]->(?y)`,
		`MATCH SHORTEST 2 TRAIL p = (?x)-[:Knows+]->(?y)`,
		`MATCH ALL PARTITIONS 2 GROUPS 1 PATHS TRAIL p = (?x)-[:Knows*]->(?y) GROUP BY SOURCE LENGTH ORDER BY PARTITION GROUP PATH`,
		`MATCH WALK p = (?x)-[:Knows/:Knows]->(?y) WHERE first.name != "Moe_1"`,
	}
	for _, strategy := range []JoinStrategy{HashJoin, NestedLoop} {
		for _, qs := range queries {
			plan := gql.MustCompile(qs)
			want, err := referenceEval(plan)
			if err != nil {
				t.Fatalf("%s reference: %v", qs, err)
			}
			eng := New(g, Options{Limits: lim, Join: strategy})
			got, err := eng.EvalPaths(plan)
			if err != nil {
				t.Fatalf("%s engine(%s): %v", qs, strategy, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s under %s: engine %d paths, reference %d",
					qs, strategy, got.Len(), want.Len())
			}
		}
	}
}

func TestJoinStrategiesAgree(t *testing.T) {
	g := ldbc.Figure1()
	plan := core.Join{L: knowsSel(), R: knowsSel()}
	hash := New(g, Options{Join: HashJoin})
	nested := New(g, Options{Join: NestedLoop})
	a, err := hash.EvalPaths(plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nested.EvalPaths(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("hash and nested-loop joins disagree")
	}
	if hash.Stats().JoinProbes >= nested.Stats().JoinProbes {
		t.Errorf("hash join should probe less: %d vs %d",
			hash.Stats().JoinProbes, nested.Stats().JoinProbes)
	}
}

func TestIndexedSelect(t *testing.T) {
	g := ldbc.Figure1()
	indexed := New(g, Options{})
	plain := New(g, Options{DisableLabelIndex: true})

	plans := []core.PathExpr{
		knowsSel(),
		core.Select{Cond: cond.Label(cond.First(), "Person"), In: core.Nodes{}},
		core.Select{Cond: cond.Label(cond.Last(), "Message"), In: core.Nodes{}},
		core.Select{Cond: cond.Label(cond.NodeAt(1), "Person"), In: core.Nodes{}},
	}
	for _, plan := range plans {
		a, err := indexed.EvalPaths(plan)
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.EvalPaths(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("indexed and scan selection disagree for %s", plan)
		}
	}
	if indexed.Stats().IndexedScans != int64(len(plans)) {
		t.Errorf("IndexedScans = %d, want %d", indexed.Stats().IndexedScans, len(plans))
	}
	if plain.Stats().IndexedScans != 0 {
		t.Error("disabled index still used")
	}
}

func TestIndexedSelectNotUsedForComplexConds(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{})
	plans := []core.PathExpr{
		// NE comparisons and non-atom inputs must scan.
		core.Select{Cond: cond.LabelCmp{Target: cond.EdgeAt(1), Op: cond.NE, Value: "Knows"}, In: core.Edges{}},
		core.Select{Cond: cond.Label(cond.EdgeAt(2), "Knows"), In: core.Edges{}},
		core.Select{Cond: cond.Label(cond.EdgeAt(1), "Knows"), In: core.Union{L: core.Edges{}, R: core.Edges{}}},
		core.Select{Cond: cond.Len(0), In: core.Nodes{}},
	}
	for _, plan := range plans {
		if _, err := e.EvalPaths(plan); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().IndexedScans != 0 {
		t.Errorf("complex selections must not use the index; IndexedScans = %d",
			e.Stats().IndexedScans)
	}
}

func TestBudgetPropagates(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{Limits: core.Limits{MaxPaths: 10}})
	_, err := e.EvalPaths(core.Recurse{Sem: core.Walk, In: knowsSel()})
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget error", err)
	}
}

func TestNilAndUnknownExpr(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{})
	if _, err := e.EvalPaths(nil); err == nil {
		t.Error("nil path expr must error")
	}
	if _, err := e.EvalSpace(nil); err == nil {
		t.Error("nil space expr must error")
	}
}

func TestStatsReset(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{})
	if _, err := e.EvalPaths(core.Edges{}); err != nil {
		t.Fatal(err)
	}
	if e.Stats().PathsProduced == 0 {
		t.Error("stats not accumulated")
	}
	e.ResetStats()
	if e.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}

func TestEvalSpaceDirect(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{})
	ss, err := e.EvalSpace(core.OrderBy{Key: core.OrderPath,
		In: core.GroupBy{Key: core.GroupST, In: knowsSel()}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Partitions) != 4 {
		t.Errorf("partitions = %d, want 4 (one per Knows edge pair)", len(ss.Partitions))
	}
}

func TestJoinStrategyString(t *testing.T) {
	if HashJoin.String() != "hash" || NestedLoop.String() != "nested-loop" {
		t.Error("JoinStrategy names")
	}
	if JoinStrategy(9).String() != "JoinStrategy(9)" {
		t.Error("unknown strategy name")
	}
}

// Property: for random label pairs, engine join equals reference join.
func TestJoinMatchesReferenceProperty(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 8, Messages: 5, KnowsPerPerson: 2, LikesPerPerson: 2,
		CycleFraction: 0.25, Seed: 9,
	})
	labels := []string{ldbc.LabelKnows, ldbc.LabelLikes, ldbc.LabelHasCreator}
	f := func(i, j uint8) bool {
		l := core.Select{Cond: cond.Label(cond.EdgeAt(1), labels[int(i)%3]), In: core.Edges{}}
		r := core.Select{Cond: cond.Label(cond.EdgeAt(1), labels[int(j)%3]), In: core.Edges{}}
		eng := New(g, Options{})
		got, err := eng.EvalPaths(core.Join{L: l, R: r})
		if err != nil {
			return false
		}
		lref, _ := eng.EvalPaths(l)
		rref, _ := eng.EvalPaths(r)
		return got.Equal(core.EvalJoin(lref, rref))
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(5)), MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestGraphImmutabilityAcrossEngines: two engines over the same graph see
// identical data (graphs are shared, engines are not).
func TestGraphImmutabilityAcrossEngines(t *testing.T) {
	g := ldbc.Figure1()
	plan := rpq.Compile(rpq.MustParse(":Knows+"), core.Trail)
	a, err := New(g, Options{}).EvalPaths(plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(g, Options{}).EvalPaths(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("evaluations over a shared graph disagree")
	}
}

func TestLabelIndexConsistency(t *testing.T) {
	// The indexed shortcut must match a full scan on a larger graph too.
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 40, Messages: 60, KnowsPerPerson: 3, LikesPerPerson: 2,
		CycleFraction: 0.3, Seed: 21,
	})
	for _, label := range []string{ldbc.LabelKnows, ldbc.LabelLikes, ldbc.LabelHasCreator, "Nope"} {
		plan := core.Select{Cond: cond.Label(cond.EdgeAt(1), label), In: core.Edges{}}
		a, err := New(g, Options{}).EvalPaths(plan)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(g, Options{DisableLabelIndex: true}).EvalPaths(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("label %q: index and scan disagree (%d vs %d)", label, a.Len(), b.Len())
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var opts Options
	if opts.Join != HashJoin {
		t.Error("default join strategy must be HashJoin")
	}
	g := ldbc.Figure1()
	e := New(g, opts)
	// Default limits protect against divergence.
	_, err := e.EvalPaths(core.Recurse{Sem: core.Walk, In: knowsSel()})
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Errorf("default limits should trip on a cyclic walk, got %v", err)
	}
	_ = graph.Graph{} // keep graph import for the builder-based tests above
}

// TestFingerprintCollisionStat checks the observability hook for the
// fingerprint fallback: a normal evaluation should see no collisions, and
// the counter must rebase on ResetStats rather than accumulate forever.
func TestFingerprintCollisionStat(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 20, KnowsPerPerson: 3, CycleFraction: 0.3, Seed: 4,
	})
	e := New(g, Options{Limits: core.Limits{MaxLen: 5}})
	if _, err := e.EvalPaths(rpq.Compile(rpq.MustParse(":Knows+"), core.Trail)); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().FingerprintCollisions; got != 0 {
		t.Errorf("FingerprintCollisions = %d on an honest evaluation, want 0", got)
	}
	// Force collisions through the shared pathset counter and check the
	// engine observes exactly the delta since its construction.
	s := pathset.New(0)
	figure := ldbc.Figure1()
	s.Add(path.ForceFingerprint(path.MustFromKeys(figure, "n1", "e1", "n2"), 7))
	s.Add(path.ForceFingerprint(path.MustFromKeys(figure, "n2", "e2", "n3"), 7))
	if got := e.Stats().FingerprintCollisions; got != 1 {
		t.Errorf("FingerprintCollisions = %d after one injected collision, want 1", got)
	}
	e.ResetStats()
	if got := e.Stats().FingerprintCollisions; got != 0 {
		t.Errorf("FingerprintCollisions = %d after ResetStats, want 0", got)
	}
}

// TestJoinIndexWorkerPanic: a panic inside a parallel hash-join build
// worker comes back as a typed core.ErrInternal with a stack instead of
// killing the process.
func TestJoinIndexWorkerPanic(t *testing.T) {
	e := New(ldbc.Figure1(), Options{Parallelism: 4})
	rp := make([]path.Path, parallelBuildThreshold)
	for i := range rp {
		rp[i] = path.FromNode(0)
	}
	rp[len(rp)-1] = path.Path{} // First() of an empty path panics
	_, err := e.buildJoinIndex(rp)
	var pe *core.PanicError
	if !errors.Is(err, core.ErrInternal) || !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("buildJoinIndex over a poisoned build side = %v, want a core.PanicError with a stack", err)
	}
	rp[len(rp)-1] = path.FromNode(0)
	byFirst, err := e.buildJoinIndex(rp)
	if err != nil || len(byFirst[0]) != len(rp) {
		t.Fatalf("healthy build after a panic: %v, %d positions", err, len(byFirst[0]))
	}
}
