// Package reach is the bitset reachability kernel: the second evaluation
// kernel next to the path-enumerating product search of internal/
// automaton, for queries whose answer is invariant under path-body
// erasure — EXISTS, endpoint pairs, counts of distinct endpoints, and
// ANY SHORTEST lengths. It runs a multiple-source BFS over the NFA×graph
// product, but represents each product layer as one node bitset per NFA
// state and takes BFS steps as word-parallel ORs of per-symbol successor
// rows (graph.BitsetIndex) — the boolean-matrix form of the RPQ product
// construction. No path is ever materialized: the kernel's only outputs
// are (source, destination) pairs and, on request, the minimum accepted
// walk length per pair, which for both Walk and Shortest semantics under
// a shared MaxLen horizon coincides with what erasing the bodies of the
// enumerating kernel's output would produce.
//
// Budget discipline: every frontier row scan and every successor-row OR
// charges the shared core.Budget proportionally to the words it touches,
// and every admitted pair charges one path of its BFS depth — so
// MaxWork/MaxPaths bound the kernel exactly like the enumerating search,
// and Cancel (or a context attached via Budget.Watch) aborts it at the
// next charge.
package reach

import (
	"context"
	"errors"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/fault"
	"pathalgebra/internal/graph"
)

// ErrInfeasible reports that the graph's bitset index exceeds
// graph.MaxBitsetBytes; callers must fall back to the enumerating kernel.
var ErrInfeasible = errors.New("reach: bitset index infeasible for this graph (over graph.MaxBitsetBytes)")

// Pair is one reachability answer: some accepted walk runs Src→Dst.
type Pair struct {
	Src, Dst graph.NodeID
}

// Query describes one kernel evaluation.
type Query struct {
	// NFA is the Glushkov automaton of the (forward) path expression.
	NFA *automaton.NFA
	// Seeds are the BFS sources, ascending. nil means every live node;
	// a non-nil empty slice means zero sources (the engine's seed-set
	// convention).
	Seeds []graph.NodeID
	// Targets restricts the admitted destinations. nil means every
	// node; non-nil empty means none.
	Targets []graph.NodeID
	// MaxLen caps the BFS depth (accepted walk edge length); <= 0 means
	// no cap — the product fixpoint still terminates.
	MaxLen int
	// NeedLengths asks for Result.Lengths (ANY SHORTEST length-only).
	NeedLengths bool
	// Workers shards the sources across goroutines when > 1.
	Workers int
}

// Result is a kernel answer: pairs ascending by (Src, Dst), and when
// requested the minimum accepted walk length of each pair, parallel to
// Pairs. Deterministic at any Workers setting.
type Result struct {
	Pairs   []Pair
	Lengths []int32
}

// symTargets is one compiled labelled transition group: reading an edge
// with symbol sym moves the product into every state of to.
type symTargets struct {
	sym graph.SymbolID
	to  []automaton.StateID
}

// stateProg is the compiled transition program of one NFA state:
// wildcard targets consume the any-label successor row, labelled targets
// the per-symbol row. Labels no live edge carries compile to nothing,
// and labelled targets subsumed by a wildcard target are dropped.
type stateProg struct {
	anyTo []automaton.StateID
	symTo []symTargets
	// bitCost is the budget charge per frontier bit processed in this
	// state: the words of every successor-row OR the bit triggers.
	bitCost int
}

// Evaluator is a compiled (graph, NFA) kernel instance with reusable
// scratch. Not safe for concurrent use; the parallel path gives each
// worker its own scratch.
type Evaluator struct {
	g   *graph.Graph
	ix  *graph.BitsetIndex
	nfa *automaton.NFA

	prog      []stateProg
	accepting []automaton.StateID // accepting states reachable at depth >= 1
	words, n  int

	scr        scratch
	seedBuf    []graph.NodeID
	targetMask []uint64
}

// scratch is one worker's BFS state: per-NFA-state node bitsets for the
// current frontier, the visited product set and the next layer, plus the
// accepted-destination accumulator and per-node first-acceptance depths.
type scratch struct {
	frontier, seen, next [][]uint64
	acc                  []uint64
	lens                 []int32
}

func newScratch(states, words, n int) *scratch {
	scr := &scratch{
		frontier: makeRows(states, words),
		seen:     makeRows(states, words),
		next:     makeRows(states, words),
		acc:      make([]uint64, words),
		lens:     make([]int32, n),
	}
	return scr
}

func makeRows(states, words int) [][]uint64 {
	backing := make([]uint64, states*words)
	rows := make([][]uint64, states)
	for s := range rows {
		rows[s] = backing[s*words : (s+1)*words : (s+1)*words]
	}
	return rows
}

// reset clears every bitset for the next source. lens needs no clearing:
// it is only read under an acc bit, and always written before that bit
// sets.
func (scr *scratch) reset() {
	for s := range scr.frontier {
		clearWords(scr.frontier[s])
		clearWords(scr.seen[s])
		clearWords(scr.next[s])
	}
	clearWords(scr.acc)
}

//pathalgebra:hotpath
func clearWords(row []uint64) {
	for i := range row {
		row[i] = 0
	}
}

//pathalgebra:hotpath
func orRow(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

// NewEvaluator compiles the NFA's transition program against the graph's
// bitset index. ok is false when the index is infeasible
// (graph.MaxBitsetBytes); the caller must then use the enumerating
// kernel.
func NewEvaluator(g *graph.Graph, nfa *automaton.NFA) (*Evaluator, bool) {
	ix, ok := g.Bitsets()
	if !ok {
		return nil, false
	}
	ev := &Evaluator{g: g, ix: ix, nfa: nfa, words: ix.Words(), n: ix.NumNodes()}
	ev.prog = compileProg(g, nfa, ev.words)
	for s := 1; s < nfa.NumStates(); s++ { // state 0 is never re-entered
		if nfa.Accepting(automaton.StateID(s)) {
			ev.accepting = append(ev.accepting, automaton.StateID(s))
		}
	}
	ev.scr = *newScratch(nfa.NumStates(), ev.words, ev.n)
	return ev, true
}

func compileProg(g *graph.Graph, nfa *automaton.NFA, words int) []stateProg {
	states := nfa.NumStates()
	prog := make([]stateProg, states)
	for s := 0; s < states; s++ {
		var anyTo []automaton.StateID
		perSym := map[graph.SymbolID][]automaton.StateID{}
		var symsSeen []graph.SymbolID
		nfa.VisitAll(automaton.StateID(s), func(q automaton.StateID, label string, any bool) {
			if any {
				anyTo = appendState(anyTo, q)
				return
			}
			sym := g.SymbolOf(label)
			if sym == graph.NoSymbol {
				return // no live edge carries this label
			}
			if _, seen := perSym[sym]; !seen {
				symsSeen = append(symsSeen, sym)
			}
			perSym[sym] = appendState(perSym[sym], q)
		})
		var symTo []symTargets
		for _, sym := range symsSeen {
			to := perSym[sym][:0]
			for _, q := range perSym[sym] {
				if !containsState(anyTo, q) { // wildcard row subsumes sym row
					to = append(to, q)
				}
			}
			if len(to) > 0 {
				symTo = append(symTo, symTargets{sym: sym, to: to})
			}
		}
		sort.Slice(symTo, func(i, j int) bool { return symTo[i].sym < symTo[j].sym })
		ors := len(anyTo)
		for i := range symTo {
			ors += len(symTo[i].to)
		}
		prog[s] = stateProg{anyTo: anyTo, symTo: symTo, bitCost: ors * words}
	}
	return prog
}

func appendState(dst []automaton.StateID, q automaton.StateID) []automaton.StateID {
	if containsState(dst, q) {
		return dst
	}
	return append(dst, q)
}

func containsState(ss []automaton.StateID, q automaton.StateID) bool {
	for _, s := range ss {
		if s == q {
			return true
		}
	}
	return false
}

// chargeErr resolves the typed error behind a failed budget charge.
func chargeErr(bud *core.Budget) error {
	if err := bud.Err(); err != nil {
		return err
	}
	return core.ErrBudgetExceeded
}

// Eval is the one-shot entry point: compile, attach ctx to a fresh
// budget derived from lim, and evaluate. The query's MaxLen is taken
// from lim.
func Eval(ctx context.Context, g *graph.Graph, q Query, lim core.Limits) (*Result, error) {
	ev, ok := NewEvaluator(g, q.NFA)
	if !ok {
		return nil, ErrInfeasible
	}
	bud := core.NewBudget(lim)
	stop := bud.Watch(ctx)
	defer stop()
	q.MaxLen = lim.MaxLen
	res := &Result{}
	if err := ev.EvalInto(res, q, bud); err != nil {
		return nil, err
	}
	return res, nil
}

// EvalInto evaluates q into res, reusing res's slices and the
// evaluator's scratch — the steady-state path is allocation-free at
// Workers <= 1. The budget is shared across all workers. A panic inside
// the kernel is returned as a *core.PanicError (errors.Is
// core.ErrInternal) at every Workers setting.
func (ev *Evaluator) EvalInto(res *Result, q Query, bud *core.Budget) (err error) {
	res.Pairs = res.Pairs[:0]
	res.Lengths = res.Lengths[:0]
	seeds := ev.resolveSeeds(q.Seeds)
	mask := ev.resolveTargets(q.Targets)
	if q.Workers > 1 && len(seeds) > 1 {
		return ev.evalParallel(res, q, seeds, mask, bud)
	}
	defer func() {
		if perr := core.Recovered(recover()); perr != nil {
			err = perr
		}
	}()
	for i, s := range seeds {
		if i > 0 && s == seeds[i-1] {
			continue
		}
		workerFault()
		if err := ev.runSource(&ev.scr, s, q.MaxLen, q.NeedLengths, mask, bud, &res.Pairs, &res.Lengths); err != nil {
			return err
		}
	}
	return nil
}

// resolveSeeds normalizes the source set: nil expands to every live
// node; an unsorted explicit set is sorted into the reusable buffer.
func (ev *Evaluator) resolveSeeds(seeds []graph.NodeID) []graph.NodeID {
	if seeds != nil {
		sorted := true
		for i := 1; i < len(seeds); i++ {
			if seeds[i-1] > seeds[i] {
				sorted = false
				break
			}
		}
		if sorted {
			return seeds
		}
		ev.seedBuf = append(ev.seedBuf[:0], seeds...)
		sort.Slice(ev.seedBuf, func(i, j int) bool { return ev.seedBuf[i] < ev.seedBuf[j] })
		return ev.seedBuf
	}
	ev.seedBuf = ev.seedBuf[:0]
	for v := 0; v < ev.n; v++ {
		if ev.g.NodeAlive(graph.NodeID(v)) {
			ev.seedBuf = append(ev.seedBuf, graph.NodeID(v))
		}
	}
	return ev.seedBuf
}

// resolveTargets builds the destination mask; nil means unrestricted.
func (ev *Evaluator) resolveTargets(targets []graph.NodeID) []uint64 {
	if targets == nil {
		return nil
	}
	if cap(ev.targetMask) < ev.words {
		ev.targetMask = make([]uint64, ev.words)
	} else {
		ev.targetMask = ev.targetMask[:ev.words]
		clearWords(ev.targetMask)
	}
	for _, t := range targets {
		ev.targetMask[t>>6] |= 1 << (t & 63)
	}
	return ev.targetMask
}

// runSource runs one source's product BFS and appends its admitted
// pairs (destinations ascending) to *pairs. The inner loops work on
// whole bitset words: a frontier bit pulls the successor rows its
// state's program selects and ORs them into the next layer — OR
// idempotence makes overlapping transitions harmless.
//
//pathalgebra:hotpath
func (ev *Evaluator) runSource(scr *scratch, src graph.NodeID, maxLen int, needLens bool, mask []uint64, bud *core.Budget, pairs *[]Pair, lens *[]int32) error {
	words := ev.words
	scr.reset()
	scr.frontier[0][src>>6] |= 1 << (src & 63)
	scr.seen[0][src>>6] |= 1 << (src & 63)
	if ev.nfa.AcceptsEmpty() {
		if mask == nil || mask[src>>6]&(1<<(src&63)) != 0 {
			if !bud.ChargePath(0) {
				return chargeErr(bud)
			}
			scr.acc[src>>6] |= 1 << (src & 63)
			scr.lens[src] = 0
		}
	}
	for depth := 1; maxLen <= 0 || depth <= maxLen; depth++ {
		// Expand: OR each frontier bit's successor rows into next.
		for s := range scr.frontier {
			p := &ev.prog[s]
			if len(p.anyTo) == 0 && len(p.symTo) == 0 {
				continue
			}
			if !bud.ChargeWork(words) { // the frontier-row scan
				return chargeErr(bud)
			}
			for w, word := range scr.frontier[s] {
				for word != 0 {
					v := graph.NodeID(w<<6 + bits.TrailingZeros64(word))
					word &= word - 1
					if !bud.ChargeWork(p.bitCost) {
						return chargeErr(bud)
					}
					if len(p.anyTo) > 0 {
						r := ev.ix.AnyRow(v)
						for _, q := range p.anyTo {
							orRow(scr.next[q], r)
						}
					}
					for i := range p.symTo {
						r := ev.ix.OutRow(p.symTo[i].sym, v)
						for _, q := range p.symTo[i].to {
							orRow(scr.next[q], r)
						}
					}
				}
			}
		}
		// Fold: next minus seen is the new frontier.
		anyNew := false
		for s := range scr.next {
			nxt, sn, fr := scr.next[s], scr.seen[s], scr.frontier[s]
			for w := range nxt {
				nw := nxt[w] &^ sn[w]
				sn[w] |= nw
				fr[w] = nw
				nxt[w] = 0
				anyNew = anyNew || nw != 0
			}
		}
		if !anyNew {
			break
		}
		// Admit: nodes newly in an accepting state finish a minimum-
		// length accepted walk at this exact depth.
		for _, q := range ev.accepting {
			fr := scr.frontier[q]
			for w := range fr {
				na := fr[w] &^ scr.acc[w]
				if na == 0 {
					continue
				}
				scr.acc[w] |= na
				if mask != nil {
					na &= mask[w]
				}
				for na != 0 {
					d := graph.NodeID(w<<6 + bits.TrailingZeros64(na))
					na &= na - 1
					if !bud.ChargePath(depth) {
						return chargeErr(bud)
					}
					if needLens {
						scr.lens[d] = int32(depth)
					}
				}
			}
		}
	}
	// Emit ascending by destination.
	for w := range scr.acc {
		word := scr.acc[w]
		if mask != nil {
			word &= mask[w]
		}
		for word != 0 {
			d := graph.NodeID(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			*pairs = append(*pairs, Pair{Src: src, Dst: d})
			if needLens {
				*lens = append(*lens, scr.lens[d])
			}
		}
	}
	return nil
}

// workerFault is the "reach.worker" chaos seam, hit once per source like
// "automaton.worker": injected faults surface as panics so tests exercise
// the same recovery path as a real kernel bug.
func workerFault() {
	if err := fault.Hit("reach.worker"); err != nil {
		panic(err)
	}
}

// evalParallel shards the sources over Workers goroutines against the
// shared budget and reassembles the per-source blocks in seed order, so
// the result is identical to the sequential path. A worker panic is
// contained: it cancels the budget (aborting the other workers at their
// next charge) and surfaces as a *core.PanicError.
func (ev *Evaluator) evalParallel(res *Result, q Query, seeds []graph.NodeID, mask []uint64, bud *core.Budget) error {
	type block struct {
		pairs []Pair
		lens  []int32
	}
	blocks := make([]block, len(seeds))
	workers := q.Workers
	if workers > len(seeds) {
		workers = len(seeds)
	}
	var cursor atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if err := core.Recovered(recover()); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					bud.Cancel(err)
				}
			}()
			scr := newScratch(len(ev.prog), ev.words, ev.n)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(seeds) {
					return
				}
				if i > 0 && seeds[i] == seeds[i-1] {
					continue
				}
				workerFault()
				if err := ev.runSource(scr, seeds[i], q.MaxLen, q.NeedLengths, mask, bud, &blocks[i].pairs, &blocks[i].lens); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if errp := firstErr.Load(); errp != nil {
		return *errp
	}
	for i := range blocks {
		res.Pairs = append(res.Pairs, blocks[i].pairs...)
		if q.NeedLengths {
			res.Lengths = append(res.Lengths, blocks[i].lens...)
		}
	}
	return nil
}
