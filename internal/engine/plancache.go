package engine

import (
	"pathalgebra/internal/core"
	"pathalgebra/internal/lru"
)

// planKey identifies a planned query by everything planning reads: the
// canonical String rendering of the INPUT plan, which the parser and
// compiler already normalize (whitespace, label quoting and operator
// sugar all disappear in the expression tree), so syntactically
// different spellings of the same logical plan share one slot; the epoch
// whose statistics costed it; and the limits the cost model read. The
// same query text planned at epoch 4 and epoch 7, or under MaxLen 2 and
// MaxLen 5, occupies two slots, so a plan is never replayed under inputs
// it was not chosen for, and old epochs' entries age out of the LRU as
// new epochs fill it.
type planKey struct {
	epoch uint64
	lim   core.Limits
	text  string
}

// planEntry is a cached physical plan and the rules that shaped it. The
// plan tree is immutable and safely shared across evaluations.
type planEntry struct {
	plan    core.PathExpr
	applied []string
}

// newPlanCache returns the fixed-capacity LRU of planned queries. It is
// mutex-guarded (lru.Cache) and shared by an engine, its pinned copies
// and its WithLimits views: concurrent Plan/Run calls serialize only the
// cache probe and the (rare) planning of a cold query, never evaluation.
func newPlanCache(capacity int) *lru.Cache[planKey, planEntry] {
	return lru.New[planKey, planEntry](capacity)
}
