// Package pathset provides the central data structure of the path algebra:
// a duplicate-free set of paths. Every core and recursive algebra operator
// consumes and produces values of this type (the algebra is closed under
// sets of paths, §3), which is what gives the algebra composability.
//
// Duplicate elimination is fingerprint-based: an open-addressing index
// probes from each path's 64-bit structural hash (path.Fingerprint) over
// the slice positions of the paths, and membership falls back to exact
// path.Equal among paths sharing a fingerprint, so hash collisions cost a
// comparison but never an answer. No key strings are materialized.
// Fallback activations are counted process-wide (Collisions) so the
// collision path stays observable.
//
// Iteration order is insertion order, so evaluation is deterministic; Sort
// re-orders into the canonical (length, sequence) order used for output.
package pathset

import (
	"sort"
	"strings"
	"sync/atomic"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/path"
)

// collisionCount tallies, process-wide, how many times an insert landed in
// a non-empty fingerprint bucket — i.e. how often the exact-Equal fallback
// had to disambiguate. It is a correctness observability hook: a sane run
// keeps it at (or within a hair of) zero.
var collisionCount atomic.Int64

// Collisions returns the process-wide count of fingerprint-bucket fallback
// activations since program start.
func Collisions() int64 { return collisionCount.Load() }

// Set is an ordered, duplicate-free collection of paths. The zero Set is
// empty and ready to use, but New pre-sizes the index.
type Set struct {
	paths []path.Path
	// index is a linear-probing table of positions in paths (position+1;
	// 0 is empty), probed from a fingerprint's low bits and at most 3/4
	// full. It has no per-process hash seed, unlike a Go map, so the
	// allocations growing it depend only on the paths added.
	index []int32
	// slab backs the storage of paths materialized out of an arena by
	// AddArena, so admitting k paths costs O(k·L/block) allocations
	// instead of two slices per path. Paths in the set alias it; it is
	// never reused after Reset.
	slab path.Slab
}

// New returns an empty set with capacity for n paths.
func New(n int) *Set {
	return &Set{
		paths: make([]path.Path, 0, n),
		index: make([]int32, indexSize(n)),
	}
}

// indexSize is the index length that holds n paths at most 3/4 full.
func indexSize(n int) int {
	size := 8
	for 3*size < 4*n {
		size *= 2
	}
	return size
}

// admit is the insert step of Add and its arena variants. It reports
// false if eq accepts an indexed path bearing fingerprint fp (given its
// position); otherwise it indexes the path about to be appended at
// position len(s.paths) and reports true. Fingerprint matches that eq
// rejects count as collisions.
func (s *Set) admit(fp uint64, eq func(j int32) bool) bool {
	if 4*(len(s.paths)+1) > 3*len(s.index) {
		s.reindex()
	}
	collided := false
	mask := len(s.index) - 1
	i := int(fp) & mask
	for ; s.index[i] != 0; i = (i + 1) & mask {
		if j := s.index[i] - 1; s.paths[j].Fingerprint() == fp {
			if eq(j) {
				return false
			}
			collided = true
		}
	}
	if collided {
		collisionCount.Add(1)
	}
	s.index[i] = int32(len(s.paths)) + 1
	return true
}

// FromPaths builds a set from the given paths, dropping duplicates.
func FromPaths(ps ...path.Path) *Set {
	s := New(len(ps))
	for _, p := range ps {
		s.Add(p)
	}
	return s
}

// Len returns the number of distinct paths.
func (s *Set) Len() int { return len(s.paths) }

// Add inserts p unless an equal path is present. It reports whether the
// path was newly inserted.
func (s *Set) Add(p path.Path) bool {
	if !s.admit(p.Fingerprint(), func(j int32) bool { return s.paths[j].Equal(p) }) {
		return false
	}
	s.paths = append(s.paths, p)
	return true
}

// AddArena inserts the arena-resident path at r unless an equal path is
// present, reporting whether it was newly inserted. The path is
// materialized (nodes/edges slices allocated) only when genuinely new —
// membership probes walk the arena's parent chain against the candidate
// bucket — so the evaluation hot loops pay slice allocations exactly once
// per admitted result path and never for duplicates.
func (s *Set) AddArena(a *path.Arena, r path.Ref) bool {
	if !s.admit(a.Fingerprint(r), func(j int32) bool { return a.EqualPath(r, s.paths[j]) }) {
		return false
	}
	s.paths = append(s.paths, a.PathSlab(r, &s.slab))
	return true
}

// AddArenaReversed inserts the REVERSE of the arena-resident path at r
// unless an equal path is present, reporting whether it was newly
// inserted. It is AddArena for the backward product search, whose arena
// chains hold paths last-node-first: membership probes and the admitted
// path both use the canonical forward fingerprint, so sets filled this
// way are indistinguishable from forward-filled ones.
func (s *Set) AddArenaReversed(a *path.Arena, r path.Ref) bool {
	fp := a.ReversedFingerprint(r)
	if !s.admit(fp, func(j int32) bool { return a.ReversedEqualPath(r, s.paths[j]) }) {
		return false
	}
	s.paths = append(s.paths, a.ReversedPathSlab(r, &s.slab, fp))
	return true
}

// Contains reports whether an equal path is in the set.
func (s *Set) Contains(p path.Path) bool {
	if len(s.index) == 0 {
		return false
	}
	fp := p.Fingerprint()
	mask := len(s.index) - 1
	for i := int(fp) & mask; s.index[i] != 0; i = (i + 1) & mask {
		if q := s.paths[s.index[i]-1]; q.Fingerprint() == fp && q.Equal(p) {
			return true
		}
	}
	return false
}

// Paths returns the underlying slice in insertion order. The slice is
// shared; callers must not modify it.
func (s *Set) Paths() []path.Path { return s.paths }

// At returns the i-th path in insertion order.
func (s *Set) At(i int) path.Path { return s.paths[i] }

// AddAll inserts every path of t into s.
func (s *Set) AddAll(t *Set) {
	for _, p := range t.paths {
		s.Add(p)
	}
}

// Reset empties the set while keeping its allocated storage (the paths
// slice and the fingerprint index), so hot loops — e.g. the per-source
// visited sets of the sharded product search — reuse one set per worker
// instead of reallocating per source.
func (s *Set) Reset() {
	s.paths = s.paths[:0]
	clear(s.index)
	// The slab is dropped, not truncated: previously returned paths may
	// still alias its blocks.
	s.slab = path.Slab{}
}

// Merge builds one set containing the paths of every shard in argument
// order, pre-sized to the summed shard lengths and deduplicating across
// shards. It is the general-purpose companion of FromOrderedDisjoint:
// use Merge when shards may overlap; the sharded evaluators, whose
// shards provably partition the result, use FromOrderedDisjoint instead.
func Merge(shards ...*Set) *Set {
	n := 0
	for _, sh := range shards {
		if sh != nil {
			n += sh.Len()
		}
	}
	out := New(n)
	for _, sh := range shards {
		if sh != nil {
			out.AddAll(sh)
		}
	}
	return out
}

// FromOrderedDisjoint builds a set by concatenating pre-deduplicated path
// groups in argument order. The caller guarantees the groups are mutually
// disjoint and internally duplicate-free — true of shard outputs of a
// source-partitioned search, where every path belongs to the shard of its
// first node. Each path is indexed exactly once (no membership probe), so
// this is the cheap merge for the sharded evaluators; the resulting set
// is indistinguishable from repeated Add calls in the same order.
func FromOrderedDisjoint(groups [][]path.Path) *Set {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	s := &Set{paths: make([]path.Path, 0, n)}
	for _, g := range groups {
		s.paths = append(s.paths, g...)
	}
	s.reindex()
	return s
}

// Union returns a new set containing the paths of s followed by the new
// paths of t (the algebra's ∪ operator, duplicate-eliminating).
func Union(s, t *Set) *Set {
	out := New(s.Len() + t.Len())
	out.AddAll(s)
	out.AddAll(t)
	return out
}

// Intersect returns the paths present in both sets, in s's order.
func Intersect(s, t *Set) *Set {
	out := New(min(s.Len(), t.Len()))
	for _, p := range s.paths {
		if t.Contains(p) {
			out.Add(p)
		}
	}
	return out
}

// Minus returns the paths of s not present in t, in s's order.
func Minus(s, t *Set) *Set {
	out := New(s.Len())
	for _, p := range s.paths {
		if !t.Contains(p) {
			out.Add(p)
		}
	}
	return out
}

// Filter returns the paths satisfying keep, preserving order.
func (s *Set) Filter(keep func(path.Path) bool) *Set {
	out := New(s.Len())
	for _, p := range s.paths {
		if keep(p) {
			out.Add(p)
		}
	}
	return out
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{paths: append([]path.Path(nil), s.paths...)}
	out.reindex()
	return out
}

// reindex rebuilds the fingerprint index from the paths slice, sized for
// one more path. The paths are duplicate-free already, so nothing here
// counts as a collision.
func (s *Set) reindex() {
	s.index = make([]int32, indexSize(len(s.paths)+1))
	mask := len(s.index) - 1
	for j, p := range s.paths {
		i := int(p.Fingerprint()) & mask
		for s.index[i] != 0 {
			i = (i + 1) & mask
		}
		s.index[i] = int32(j) + 1
	}
}

// Equal reports whether s and t contain exactly the same paths,
// irrespective of order.
func (s *Set) Equal(t *Set) bool {
	if s.Len() != t.Len() {
		return false
	}
	for _, p := range s.paths {
		if !t.Contains(p) {
			return false
		}
	}
	return true
}

// Sort re-orders the set in place into the canonical (length, node
// sequence, edge sequence) order. The positional index is rebuilt to match.
func (s *Set) Sort() {
	sort.SliceStable(s.paths, func(i, j int) bool {
		return path.Compare(s.paths[i], s.paths[j]) < 0
	})
	s.reindex()
}

// Sorted returns a canonical-order copy, leaving s untouched. The copy is
// sorted before its index is built, so it pays one reindex, not two.
func (s *Set) Sorted() *Set {
	out := &Set{paths: append([]path.Path(nil), s.paths...)}
	sort.SliceStable(out.paths, func(i, j int) bool {
		return path.Compare(out.paths[i], out.paths[j]) < 0
	})
	out.reindex()
	return out
}

// Format renders the set one path per line in canonical order, using the
// graph's external keys. Used by tests, the CLI and the papertables tool.
func (s *Set) Format(g *graph.Graph) string {
	c := s.Sorted()
	var sb strings.Builder
	for i, p := range c.paths {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(p.Format(g))
	}
	return sb.String()
}
