package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/stats"
)

// The traced run is never the one that reports end-to-end metrics. It
// splits its seconds in three: phase A replays the workload untraced
// (the baseline for the tracing overhead, and the window of the /metrics
// deltas), phase B replays the same request sequence with ?trace=1 and
// keeps the daemon's span trees, and phase C calls each layer's public
// functions in process on the same sequence under benchmark-side spans.
// Both span sets are written to <out>/traces at the end.

// span is one benchmark-side span: a call into one layer.
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  int    `json:"parent"` // index into the span list; -1 for a request root
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) start(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	t.spans[i].EndNS = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].EndNS - t.spans[i].StartNS)
}

// inproc is phase C's findings.
type inproc struct {
	parseUS, planMissUS, evalMS, reachMS []float64
	pathsProduced, resultPaths           int64
}

// replayInProcess runs reader 0's request sequence through gql.Parse,
// gql.Compile, Engine.Plan and Engine.EvalPathsCtx or Engine.ReachCtx,
// for at most n requests or budget.
func replayInProcess(ctx context.Context, g *graph.Graph, w *workload, seed int64, n int, budget time.Duration, tr *tracer) (*inproc, error) {
	out := &inproc{}
	engines := make(map[int]*engine.Engine)
	next := w.next(rand.New(rand.NewSource(readerSeed(seed, 0))))
	t0 := time.Now()
	for i := 0; i < n && time.Since(t0) < budget; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := next()
		eng := engines[r.maxLen]
		if eng == nil {
			opts := engineOptions(r.maxLen)
			opts.Parallelism = w.procs() // as in the daemon
			eng = engine.New(g, opts)
			engines[r.maxLen] = eng
		}
		root := tr.start("request", i, -1)
		sp := tr.start("gql.parse", i, root)
		ast, err := gql.Parse(r.query)
		parse := tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.start("gql.compile", i, root)
		logical, err := gql.Compile(ast)
		parse += tr.end(sp)
		if err != nil {
			return nil, err
		}
		out.parseUS = append(out.parseUS, float64(parse)/1e3)
		before := eng.Stats()
		sp = tr.start("opt.plan", i, root)
		plan, _ := eng.Plan(logical)
		d := tr.end(sp)
		if eng.Stats().PlanCacheMisses > before.PlanCacheMisses {
			out.planMissUS = append(out.planMissUS, float64(d)/1e3)
		}
		if r.reach {
			mode, err := parseMode(r.mode)
			if err != nil {
				return nil, err
			}
			sp = tr.start("engine.reach", i, root)
			_, err = eng.ReachCtx(ctx, logical, mode)
			out.reachMS = append(out.reachMS, ms(tr.end(sp)))
			if err != nil {
				return nil, err
			}
		} else {
			before = eng.Stats()
			sp = tr.start("engine.eval", i, root)
			set, err := eng.EvalPathsCtx(ctx, plan)
			out.evalMS = append(out.evalMS, ms(tr.end(sp)))
			if err != nil {
				return nil, err
			}
			out.pathsProduced += eng.Stats().PathsProduced - before.PathsProduced
			out.resultPaths += int64(set.Len())
		}
		tr.end(root)
	}
	return out, nil
}

// buildStats runs the internal/stats one-pass collection over g through
// the graph's public accessors, as graph.Build does at load time.
func buildStats(g *graph.Graph) *stats.Stats {
	sb := stats.NewBuilder(g.NumSymbols())
	for i := 0; i < g.NumSymbols(); i++ {
		sb.SetSymbol(i, g.SymbolName(graph.SymbolID(i)))
	}
	for _, l := range g.Labels() {
		if n := len(g.NodesWithLabel(l)); n > 0 {
			sb.NodeLabelCount(l, n)
		}
		if n := len(g.EdgesWithLabel(l)); n > 0 {
			sb.EdgeLabelCount(l, n)
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		total := 0
		for _, run := range g.OutRuns(graph.NodeID(v)) {
			sb.ObserveOut(int(run.Sym), len(run.Edges))
			total += len(run.Edges)
		}
		if total > 0 {
			sb.ObserveAnyOut(total)
		}
		total = 0
		for _, run := range g.InRuns(graph.NodeID(v)) {
			sb.ObserveIn(int(run.Sym), len(run.Edges))
			total += len(run.Edges)
		}
		if total > 0 {
			sb.ObserveAnyIn(total)
		}
	}
	return sb.Finish(g.NumNodes(), g.NumEdges())
}

// graphLayerBatches is how many writer batches the in-process graph layer
// replays: 8192 ops, two compactions at the default threshold.
const graphLayerBatches = 512

// graphLayer times Store.Apply on a WAL-durable store over g replaying the
// writer's first batches, and at every 4096 ops evaluates one Knows query
// on the delta overlay, times Store.Compact, evaluates it again on the
// sealed graph and times Store.Checkpoint.
type graphLayer struct {
	applyMS, compactMS, checkpointMS, overlayMS, sealedMS []float64
}

func runGraphLayer(ctx context.Context, g *graph.Graph, batches []graph.Batch, dir string, probe core.PathExpr) (*graphLayer, error) {
	store, err := graph.OpenDurable(dir, g, graph.StoreOptions{CompactThreshold: -1})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	eng := engine.NewWithStore(store, engineOptions(0))
	evalMS := func() (float64, error) {
		var xs []float64
		for i := 0; i < 3; i++ {
			t := time.Now()
			if _, err := eng.RunCtx(ctx, probe); err != nil {
				return 0, err
			}
			xs = append(xs, ms(time.Since(t)))
		}
		return median(xs), nil
	}
	out := &graphLayer{}
	ops := 0
	for i, b := range batches {
		t := time.Now()
		if _, err := store.Apply(b); err != nil {
			return nil, fmt.Errorf("graph layer apply %d: %w", i, err)
		}
		out.applyMS = append(out.applyMS, ms(time.Since(t)))
		ops += len(b.Ops)
		if ops < 4096 && i < len(batches)-1 {
			continue
		}
		ops = 0
		ov, err := evalMS()
		if err != nil {
			return nil, err
		}
		t = time.Now()
		if err := store.Compact(); err != nil {
			return nil, err
		}
		out.compactMS = append(out.compactMS, ms(time.Since(t)))
		sealed, err := evalMS()
		if err != nil {
			return nil, err
		}
		out.overlayMS = append(out.overlayMS, ov)
		out.sealedMS = append(out.sealedMS, sealed)
		t = time.Now()
		if err := store.Checkpoint(); err != nil {
			return nil, err
		}
		out.checkpointMS = append(out.checkpointMS, ms(time.Since(t)))
	}
	return out, nil
}

// layerTimes attributes one traced daemon request's span tree to layers:
// parse → gql; plan → opt; eval's self time → engine; search with its
// shard and merge children → automaton; the root's self time,
// cache_probe and deliver → server (handler glue, transport and the
// client's round trips between pages).
type layerTimes struct {
	gql, opt, engine, automaton, server float64 // ms
	search, merge, deliver              float64 // ms
	hasSearch                           bool
}

func usMS(us int64) float64 { return float64(us) / 1e3 }

// selfUS is a span's duration minus the part its children cover.
func selfUS(s *obs.SpanJSON) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range s.Children {
		ivs = append(ivs, iv{c.StartUS, c.StartUS + c.DurUS})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64 = 0, s.StartUS
	for _, v := range ivs {
		a := max(v.a, end)
		b := min(v.b, s.StartUS+s.DurUS)
		if b > a {
			covered += b - a
			end = b
		}
	}
	return max(0, s.DurUS-covered)
}

func (lt *layerTimes) add(s *obs.SpanJSON, root bool) {
	switch s.Name {
	case "parse":
		lt.gql += usMS(s.DurUS)
	case "plan":
		lt.opt += usMS(s.DurUS)
	case "cache_probe":
		lt.server += usMS(s.DurUS)
	case "deliver":
		lt.server += usMS(s.DurUS)
		lt.deliver += usMS(s.DurUS)
	case "search":
		lt.automaton += usMS(s.DurUS)
		lt.search += usMS(s.DurUS)
		lt.hasSearch = true
		var walk func(*obs.SpanJSON)
		walk = func(x *obs.SpanJSON) {
			for _, c := range x.Children {
				if c.Name == "merge" {
					lt.merge += usMS(c.DurUS)
				}
				walk(c)
			}
		}
		walk(s)
		return
	case "eval":
		lt.engine += usMS(selfUS(s))
	default:
		if root {
			lt.server += usMS(selfUS(s))
		}
	}
	for _, c := range s.Children {
		lt.add(c, false)
	}
}

// daemonTrace is one traced request's span tree as the daemon returned it.
type daemonTrace struct {
	Req   int             `json:"req"`
	Key   string          `json:"key"`
	Spans []*obs.SpanJSON `json:"spans"`
}

// runTraced is the traced run; it reports the per-layer metrics.
func runTraced(ctx context.Context, o *options, w *workload, runDir string) (*result, error) {
	batches, bodies, err := writerBatches(w, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	setups, d, _, err := launch(ctx, o, w, runDir, "-pprof")
	if err != nil {
		return nil, err
	}
	live := d
	defer func() {
		if live != nil {
			live.kill()
		}
	}()
	res := &result{correct: true}

	// ldbc and stats: the daemon's set-up work, timed in process.
	var genS, statsS []float64
	var g *graph.Graph
	for i := 0; i < setupLaunches; i++ {
		t := time.Now()
		if g, err = ldbc.Generate(graphConfig(w.persons)); err != nil {
			return nil, err
		}
		genS = append(genS, time.Since(t).Seconds())
		t = time.Now()
		buildStats(g)
		statsS = append(statsS, time.Since(t).Seconds())
	}

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var checked []sample
	if w.warm != nil {
		checked = warm(hc, d.base, w.warm())
	}
	third := time.Duration(o.seconds) * time.Second / 3
	m0, err := d.scrape()
	if err != nil {
		return nil, err
	}
	a0, err := d.totalAlloc()
	if err != nil {
		return nil, err
	}
	lg0 := selfCPU()
	pa := drive(ctx, hc, d.base, w, o.seed, third, false, bodies, 0)
	lg1 := selfCPU()
	a1, err := d.totalAlloc()
	if err != nil {
		return nil, err
	}
	m1, err := d.scrape()
	if err != nil {
		return nil, err
	}
	pb := drive(ctx, hc, d.base, w, o.seed, third, true, bodies, len(pa.writes))
	m2, err := d.scrape()
	if err != nil {
		return nil, err
	}
	hc.CloseIdleConnections()
	if err := d.stop(); err != nil {
		return nil, err
	}
	live = nil
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	tr := &tracer{t0: time.Now()}
	ip, err := replayInProcess(ctx, g, w, o.seed, len(pa.reads), third, tr)
	if err != nil {
		return nil, err
	}
	layerBatches, err := updateBatches(graphLayerBatches, o.seed)
	if err != nil {
		return nil, err
	}
	probe, err := compileQuery(ingestShapes[0].at(1 + rand.New(rand.NewSource(o.seed)).Intn(w.persons)))
	if err != nil {
		return nil, err
	}
	gl, err := runGraphLayer(ctx, g, layerBatches, filepath.Join(runDir, "graph-layer"), probe)
	if err != nil {
		return nil, err
	}

	// Correctness: every answer of both phases goes through the oracle.
	reads := append(append(checked, pa.reads...), pb.reads...)
	writes := append(append([]write(nil), pa.writes...), pb.writes...)
	countFailures(res, reads, writes)
	if w.durable {
		v, _, err := checkLive(ctx, g, reads, writes, batches, nil)
		if err != nil {
			return nil, err
		}
		applyVerdict(res, v)
	} else {
		v, err := checkStatic(ctx, g, reads)
		if err != nil {
			return nil, err
		}
		applyVerdict(res, v)
	}

	// Layer attribution of the traced phase.
	var lts []layerTimes
	var dtraces []daemonTrace
	for i := range pb.reads {
		s := &pb.reads[i]
		if s.err != nil || len(s.trace) == 0 {
			continue
		}
		dtraces = append(dtraces, daemonTrace{Req: i, Key: s.req.key, Spans: s.trace})
		if s.req.reach {
			continue
		}
		var lt layerTimes
		for _, root := range s.trace {
			lt.add(root, true)
		}
		lts = append(lts, lt)
	}
	// pick is the median of one layer figure over the traced queries (only
	// those that ran a product search when searchOnly), with its count.
	pick := func(f func(*layerTimes) float64, searchOnly bool) (float64, int) {
		var xs []float64
		for i := range lts {
			if !searchOnly || lts[i].hasSearch {
				xs = append(xs, f(&lts[i]))
			}
		}
		return median(xs), len(xs)
	}
	if err := writeTraces(o, w, tr.spans, dtraces); err != nil {
		return nil, err
	}

	// Phase A figures: untraced latency, daemon counters, harness cost.
	qa := latencies(pa.reads, false)
	qb := latencies(pb.reads, false)
	p50a, p50b := quantile(qa, 0.5), quantile(qb, 0.5)
	var opsA, queriesA, cachedA, pagesA, pathsA int
	var bytesA int64
	for i := range pa.reads {
		if s := &pa.reads[i]; s.err == nil {
			opsA++
			if !s.req.reach {
				queriesA++
				if s.cached {
					cachedA++
				}
				pagesA += s.pages
				pathsA += s.ans.n
				bytesA += s.bytes
			}
		}
	}
	var late []float64
	deltaPeak := 0
	for _, wr := range writes {
		if wr.err == nil {
			deltaPeak = max(deltaPeak, wr.reply.DeltaSize)
		}
	}
	for _, wr := range pa.writes {
		if wr.err == nil {
			opsA++
		}
		late = append(late, ms(wr.sent.Sub(wr.due)))
	}
	hitRatio := func(m0, m1 scrape, hits, misses string) float64 {
		h := delta(m0, m1, hits)
		return ratio(h, h+delta(m0, m1, misses))
	}
	histMS := func(name string) float64 {
		return 1e3 * ratio(delta(m0, m2, name+"_sum"), delta(m0, m2, name+"_count"))
	}

	res.add("ldbc.generate_s", "s", median(genS), len(genS))
	res.add("stats.build_s", "s", median(statsS), len(statsS))
	res.add("gql.parse_us", "us", median(ip.parseUS), len(ip.parseUS))
	res.add("opt.plan_us", "us", median(ip.planMissUS), len(ip.planMissUS))
	res.add("engine.plan_cache_hit_ratio", "ratio", hitRatio(m0, m1, "pathalgebra_engine_plan_cache_hits_total", "pathalgebra_engine_plan_cache_misses_total"), opsA)
	res.add("engine.eval_ms_p50", "ms", quantile(ip.evalMS, 0.5), len(ip.evalMS))
	res.add("engine.eval_ms_p99", "ms", quantile(ip.evalMS, 0.99), len(ip.evalMS))
	res.add("engine.paths_produced_per_result", "ratio", ratio(float64(ip.pathsProduced), float64(ip.resultPaths)), int(ip.resultPaths))
	v, n := pick(func(l *layerTimes) float64 { return l.search }, true)
	res.add("automaton.search_ms", "ms", v, n)
	v, n = pick(func(l *layerTimes) float64 { return l.merge }, true)
	res.add("automaton.merge_ms", "ms", v, n)
	res.add("reach.kernel_ms", "ms", median(ip.reachMS), len(ip.reachMS))
	res.add("reach.kernel_ratio", "ratio", hitRatio(m0, m1, "pathalgebra_engine_reach_kernel_runs_total", "pathalgebra_engine_reach_fallbacks_total"), opsA)
	// From the "cached" flag of each /query response: the daemon's
	// result-cache hit counter also counts probes of entries a write has
	// invalidated (see README.md).
	res.add("server.result_cache_hit_ratio", "ratio", ratio(float64(cachedA), float64(queriesA)), queriesA)
	v, n = pick(func(l *layerTimes) float64 { return l.deliver }, false)
	res.add("server.deliver_ms", "ms", v, n)
	res.add("server.ndjson_bytes_per_path", "B", ratio(float64(bytesA), float64(pathsA)), pathsA)
	res.add("server.pages_per_query", "count", ratio(float64(pagesA), float64(queriesA)), queriesA)
	res.add("server.rejected", "count", delta(m0, m2, "pathalgebra_queries_rejected_total"), opsA)
	res.add("server.alloc_bytes_per_op", "B", ratio(a1-a0, float64(opsA)), opsA)
	res.add("server.gc_cycles_per_kop", "count", 1e3*ratio(delta(m0, m1, "pathalgebra_gc_cycles_total"), float64(opsA)), opsA)
	res.add("graph.apply_ms", "ms", median(gl.applyMS), len(gl.applyMS))
	res.add("graph.wal_append_ms", "ms", histMS("pathalgebra_wal_append_seconds"), len(writes))
	res.add("graph.wal_fsync_ms", "ms", histMS("pathalgebra_wal_fsync_seconds"), len(writes))
	res.add("graph.compactions", "count", delta(m0, m2, "pathalgebra_store_compactions_total"), len(writes))
	res.add("graph.compact_ms", "ms", median(gl.compactMS), len(gl.compactMS))
	res.add("graph.checkpoints", "count", delta(m0, m2, "pathalgebra_store_checkpoints_total"), len(writes))
	res.add("graph.checkpoint_ms", "ms", median(gl.checkpointMS), len(gl.checkpointMS))
	res.add("graph.delta_size_peak", "count", float64(deltaPeak), len(writes))
	res.add("graph.overlay_eval_ms", "ms", median(gl.overlayMS), len(gl.overlayMS))
	res.add("graph.sealed_eval_ms", "ms", median(gl.sealedMS), len(gl.sealedMS))
	res.add("loadgen.cpu_s", "s", (lg1 - lg0).Seconds(), 1)
	res.add("loadgen.late_p99_ms", "ms", quantile(late, 0.99), len(late))
	for _, l := range []struct {
		name string
		f    func(*layerTimes) float64
	}{
		{"gql", func(l *layerTimes) float64 { return l.gql }},
		{"opt", func(l *layerTimes) float64 { return l.opt }},
		{"engine", func(l *layerTimes) float64 { return l.engine }},
		{"automaton", func(l *layerTimes) float64 { return l.automaton }},
		{"server", func(l *layerTimes) float64 { return l.server }},
	} {
		self, n := pick(l.f, false)
		res.add(l.name+".self_ms", "ms", self, n)
		res.add(l.name+".share_of_query_p50", "ratio", ratio(self, p50a), n)
	}
	res.add("trace.query_p50_untraced_ms", "ms", p50a, len(qa))
	res.add("trace.query_p50_traced_ms", "ms", p50b, len(qb))
	res.add("trace.overhead_pct", "%", 100*(ratio(p50b, p50a)-1), len(qb))
	res.addExtra("setup_s", "s", median(setups), len(setups))
	return res, nil
}

// writeTraces saves both span sets of a traced run.
func writeTraces(o *options, w *workload, inproc []span, daemon []daemonTrace) error {
	dir := filepath.Join(o.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload  string        `json:"workload"`
		Seed      int64         `json:"seed"`
		InProcess []span        `json:"inprocess"`
		Daemon    []daemonTrace `json:"daemon"`
	}{w.name, o.seed, inproc, daemon})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed)), b, 0o644)
}
