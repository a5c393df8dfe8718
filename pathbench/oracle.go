package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"

	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/opt"
)

// The oracle recomputes every distinct daemon answer with the in-process
// engine on the same seeded graph and compares path count plus the
// order-independent hash of the NDJSON path lines (or, for /reach, the
// count, existence flag and pair hash). A mismatch is a wrong answer: it
// counts in error_rate and fails the run.

const daemonMaxLen = 4 // pathalgebrad -maxlen, the per-query default

func engineOptions(maxLen int) engine.Options {
	if maxLen == 0 {
		maxLen = daemonMaxLen
	}
	return engine.Options{Limits: core.Limits{MaxLen: maxLen}}
}

// oracleOptions runs each oracle evaluation on one worker: the oracle
// already runs maxConns evaluations at once, and results are identical
// at every parallelism.
func oracleOptions(maxLen int) engine.Options {
	o := engineOptions(maxLen)
	o.Parallelism = 1
	return o
}

func compileQuery(q string) (core.PathExpr, error) {
	ast, err := gql.Parse(q)
	if err != nil {
		return nil, err
	}
	return gql.Compile(ast)
}

func parseMode(s string) (opt.ReachMode, error) {
	for _, m := range []opt.ReachMode{
		opt.ReachExists, opt.ReachPairs, opt.ReachCountPairs,
		opt.ReachCountPaths, opt.ReachShortestLengths,
	} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown reach mode %q", s)
}

// pathLine is the daemon's NDJSON path line; encoding/json renders it
// byte-identically to the server's encoder.
type pathLine struct {
	Nodes []string `json:"nodes"`
	Edges []string `json:"edges"`
	Len   int      `json:"len"`
}

// evalAnswer computes r's answer on eng, rendering keys against g (the
// view eng evaluated on).
func evalAnswer(ctx context.Context, eng *engine.Engine, g *graph.Graph, r *request) (answer, error) {
	plan, err := compileQuery(r.query)
	if err != nil {
		return answer{}, err
	}
	if r.reach {
		mode, err := parseMode(r.mode)
		if err != nil {
			return answer{}, err
		}
		res, err := eng.ReachCtx(ctx, plan, mode)
		if err != nil {
			return answer{}, err
		}
		a := answer{n: res.Count, exists: res.Exists}
		for i, p := range res.Pairs {
			l := int32(-1)
			if res.Lengths != nil {
				l = res.Lengths[i]
			}
			a.hash += pairHash(res.Graph.Node(p.Src).Key, res.Graph.Node(p.Dst).Key, l)
		}
		return a, nil
	}
	set, err := eng.RunCtx(ctx, plan)
	if err != nil {
		return answer{}, err
	}
	var a answer
	for _, p := range set.Paths() {
		l := pathLine{Nodes: make([]string, len(p.Nodes())), Edges: make([]string, len(p.Edges())), Len: p.Len()}
		for i, n := range p.Nodes() {
			l.Nodes[i] = g.Node(n).Key
		}
		for i, e := range p.Edges() {
			l.Edges[i] = g.Edge(e).Key
		}
		b, err := json.Marshal(l)
		if err != nil {
			return answer{}, err
		}
		a.n++
		a.hash += maphash.Bytes(hashSeed, b)
	}
	return a, nil
}

// verdict is the oracle's finding over a set of reads.
type verdict struct {
	checked int      // reads compared
	wrong   int      // reads whose answer differs from the oracle
	notes   []string // first few mismatches, for the report
}

func (v *verdict) miss(format string, args ...any) {
	v.wrong++
	if len(v.notes) < 5 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// checkStatic verifies reads against a graph no write changes: each
// distinct request is evaluated once, in parallel over maxConns workers.
func checkStatic(ctx context.Context, g *graph.Graph, reads []sample) (verdict, error) {
	byKey := make(map[string][]int)
	var keys []string
	for i := range reads {
		if reads[i].err != nil {
			continue
		}
		k := reads[i].req.key
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	engines := make(map[int]*engine.Engine)
	for _, k := range keys {
		ml := reads[byKey[k][0]].req.maxLen
		if engines[ml] == nil {
			engines[ml] = engine.New(g, oracleOptions(ml))
		}
	}
	want := make([]answer, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys) && ctx.Err() == nil; i += maxConns {
				r := reads[byKey[keys[i]][0]].req
				want[i], errs[i] = evalAnswer(ctx, engines[r.maxLen], g, r)
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return verdict{}, err
	}
	var v verdict
	for i, k := range keys {
		if errs[i] != nil {
			return v, fmt.Errorf("oracle: %s: %w", k, errs[i])
		}
		for _, j := range byKey[k] {
			v.checked++
			if got := reads[j].ans; got != want[i] {
				v.miss("%s: daemon %d paths/pairs (hash %x), in-process %d (hash %x)", k, got.n, got.hash, want[i].n, want[i].hash)
			}
		}
	}
	return v, nil
}

// epochRange bounds the store epochs a read can have observed: at least
// the newest epoch acknowledged before it was sent, at most the newest
// epoch whose batch was sent before it completed.
func epochRange(s *sample, writes []write) (lo, hi uint64) {
	for i := range writes {
		w := &writes[i]
		if w.err != nil {
			continue
		}
		if !w.acked.After(s.start) && w.reply.Epoch > lo {
			lo = w.reply.Epoch
		}
		if !w.sent.After(s.end) && w.reply.Epoch > hi {
			hi = w.reply.Epoch
		}
	}
	return lo, max(lo, hi)
}

// replayed is the in-process replay's final state.
type replayed struct {
	epoch        uint64
	nodes, edges int
	final        map[string]answer // final-epoch answers of the checked keys
}

// checkLive verifies reads taken while the writer ingested: the in-process
// store replays the acknowledged batches in order, and each read must
// equal the in-process answer at one epoch of its epochRange. Keys are
// split over maxConns replays that run in parallel. finalReqs are also
// evaluated at the last epoch, for the post-restart comparison.
func checkLive(ctx context.Context, g *graph.Graph, reads []sample, writes []write, batches []graph.Batch, finalReqs []*request) (verdict, replayed, error) {
	acked := make([]write, 0, len(writes))
	for _, w := range writes {
		if w.err == nil {
			acked = append(acked, w)
		}
	}
	sort.Slice(acked, func(i, j int) bool { return acked[i].idx < acked[j].idx })
	type pending struct {
		s      *sample
		lo, hi uint64
	}
	var parts [maxConns][]pending
	part := func(key string) int {
		return int(maphash.String(hashSeed, key) % maxConns)
	}
	for i := range reads {
		s := &reads[i]
		if s.err != nil {
			continue
		}
		lo, hi := epochRange(s, acked)
		parts[part(s.req.key)] = append(parts[part(s.req.key)], pending{s, lo, hi})
	}
	var finals [maxConns][]*request
	for _, r := range finalReqs {
		finals[part(r.key)] = append(finals[part(r.key)], r)
	}

	var verdicts [maxConns]verdict
	var reps [maxConns]replayed
	var errs [maxConns]error
	var wg sync.WaitGroup
	for p := 0; p < maxConns; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ps := parts[p]
			sort.Slice(ps, func(i, j int) bool { return ps[i].lo < ps[j].lo })
			store := graph.NewStore(g, graph.StoreOptions{SyncCompact: true})
			defer store.Close()
			engines := make(map[int]*engine.Engine)
			eng := func(ml int) *engine.Engine {
				if engines[ml] == nil {
					engines[ml] = engine.NewWithStore(store, oracleOptions(ml))
				}
				return engines[ml]
			}
			v := &verdicts[p]
			// memo holds this epoch's answers; static answers hold for
			// every epoch.
			memo := make(map[string]answer)
			static := make(map[string]answer)
			var active []pending
			next := 0
			for k := 0; ; k++ {
				e := store.Epoch()
				for next < len(ps) && ps[next].lo <= e {
					active = append(active, ps[next])
					next++
				}
				clear(memo)
				kept := active[:0]
				for _, a := range active {
					m := memo
					if a.s.req.static {
						m = static
					}
					want, ok := m[a.s.req.key]
					if !ok {
						var err error
						want, err = evalAnswer(ctx, eng(a.s.req.maxLen), store.Graph(), a.s.req)
						if err != nil {
							errs[p] = fmt.Errorf("oracle at epoch %d: %s: %w", e, a.s.req.key, err)
							return
						}
						m[a.s.req.key] = want
					}
					switch {
					case a.s.ans == want:
						v.checked++
					case a.hi <= e:
						v.checked++
						v.miss("%s: daemon %d paths/pairs (hash %x) matches no epoch in [%d,%d]; at %d in-process has %d (hash %x)",
							a.s.req.key, a.s.ans.n, a.s.ans.hash, a.lo, a.hi, e, want.n, want.hash)
					default:
						kept = append(kept, a)
					}
				}
				active = kept
				if k == len(acked) {
					break
				}
				w := acked[k]
				got, err := store.Apply(batches[w.idx])
				if err != nil {
					errs[p] = fmt.Errorf("oracle replay of batch %d: %w", w.idx, err)
					return
				}
				if p == 0 && got != w.reply.Epoch {
					v.miss("batch %d: daemon acknowledged epoch %d, replay reached %d", w.idx, w.reply.Epoch, got)
				}
			}
			rep := &reps[p]
			rep.epoch = store.Epoch()
			rep.nodes, rep.edges = store.Graph().LiveNodes(), store.Graph().LiveEdges()
			rep.final = make(map[string]answer)
			for _, r := range finals[p] {
				a, err := evalAnswer(ctx, eng(r.maxLen), store.Graph(), r)
				if err != nil {
					errs[p] = fmt.Errorf("oracle final %s: %w", r.key, err)
					return
				}
				rep.final[r.key] = a
			}
		}(p)
	}
	wg.Wait()
	var v verdict
	out := reps[0]
	for p := 0; p < maxConns; p++ {
		if errs[p] != nil {
			return v, out, errs[p]
		}
		v.checked += verdicts[p].checked
		v.wrong += verdicts[p].wrong
		v.notes = append(v.notes, verdicts[p].notes...)
		if p > 0 {
			for k, a := range reps[p].final {
				out.final[k] = a
			}
		}
	}
	return v, out, ctx.Err()
}
