package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

// request is one generated read: a POST /query (drained cursor) or a
// POST /reach. Its body is encoded once, before timing starts.
type request struct {
	reach  bool
	query  string
	mode   string // reach answer mode
	maxLen int    // per-request max_len; 0 keeps the daemon default
	body   []byte
	key    string // identity of the answer, for the oracle
	// static marks an answer the writer's batches cannot change: it reads
	// no Knows edge, and the writer adds only Knows edges and Person nodes
	// whose ids lie above every seeded id.
	static bool
}

func newRequest(query string, maxLen int) *request {
	r := &request{query: query, maxLen: maxLen}
	r.body, _ = json.Marshal(struct {
		Query  string `json:"query"`
		MaxLen int    `json:"max_len,omitempty"`
	}{query, maxLen})
	r.key = fmt.Sprintf("query|%d|%s", maxLen, query)
	return r
}

func newReach(query, mode string, maxLen int) *request {
	r := &request{reach: true, query: query, mode: mode, maxLen: maxLen}
	r.body, _ = json.Marshal(struct {
		Query  string `json:"query"`
		Mode   string `json:"mode"`
		MaxLen int    `json:"max_len,omitempty"`
	}{query, mode, maxLen})
	r.key = fmt.Sprintf("reach|%s|%d|%s", mode, maxLen, query)
	return r
}

// shape is a query template; "@" stands for a seeded node id.
type shape struct {
	text   string
	mode   string // reach mode; "" for a path query
	static bool   // see request.static
}

func (s shape) at(id int) string { return strings.Replace(s.text, "@", strconv.Itoa(id), 1) }

// coldShapes cover the five semantics (WALK, TRAIL, ACYCLIC, SIMPLE and
// the SHORTEST restrictor) and the Table 1 selectors, each seeded at one
// node, forward and backward. Every one finishes in milliseconds on the
// 5000-person graph at max length 4.
var coldShapes = []shape{
	{text: `MATCH ALL TRAIL p = (?x {id:@})-[:Knows+]->(?y)`},
	{text: `MATCH ANY SHORTEST WALK p = (?x {id:@})-[(:Knows|:Likes)+]->(?y)`},
	{text: `MATCH ALL SHORTEST ACYCLIC p = (?x {id:@})-[:Knows+]->(?y)`},
	{text: `MATCH ANY SIMPLE p = (?x {id:@})-[(:Knows|:Likes)+]->(?y)`},
	{text: `MATCH ANY 2 TRAIL p = (?x {id:@})-[:Knows+/:Likes]->(?y)`},
	{text: `MATCH SHORTEST 2 WALK p = (?x {id:@})-[:Knows+]->(?y)`},
	{text: `MATCH SHORTEST 2 GROUP ACYCLIC p = (?x {id:@})-[(:Knows|:Likes)+]->(?y)`},
	{text: `MATCH ALL SHORTEST p = (?x {id:@})-[:Knows+]->(?y)`},
	{text: `MATCH ALL SIMPLE p = (?x)-[:Knows+]->(?y {id:@})`},
	{text: `MATCH ALL WALK p = (?x {id:@})-[(:Likes/:Has_creator)+]->(?y)`},
	{text: `MATCH ALL TRAIL p = (?x {id:@})-[:Knows+/:Likes/:Has_creator]->(?y)`},
}

// reachShapes are kernel-eligible path-free questions (bare WALK or
// SHORTEST recursions over a label pattern, endpoint-only selections).
var reachShapes = []shape{
	{text: `MATCH WALK p = (?x {id:@})-[:Knows+]->(?y)`, mode: "pairs"},
	{text: `MATCH ANY SHORTEST WALK p = (?x {id:@})-[(:Knows|:Likes)+]->(?y)`, mode: "shortest-lengths"},
	{text: `MATCH WALK p = (?x {id:@})-[(:Knows|:Likes)+]->(?y)`, mode: "count-pairs"},
	{text: `MATCH SHORTEST p = (?x {id:@})-[(:Likes/:Has_creator)+]->(?y)`, mode: "exists"},
}

// hotPool is hot-delivery's fixed pool of whole-graph queries on the
// 500-person graph, in Zipf rank order. Each returns roughly 1k to 60k
// paths (0.1 to 5 MB of NDJSON); the pool is far smaller than the
// 128-entry result LRU. The ranks are arranged so that the latency median
// falls inside the ~6k-path answers (46% of the draws) and the 99th
// percentile inside the ~60k-path ones (10%), not on a boundary between
// answer sizes, where a small change in the draw would move it.
var hotPool = []*request{
	newRequest(`MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)`, 2),                   // 6.1k paths
	newRequest(`MATCH ALL TRAIL p = (?x)-[:Likes/:Has_creator]->(?y)`, 4),       // 1k
	newRequest(`MATCH ALL WALK p = (?x)-[:Knows/:Likes/:Has_creator]->(?y)`, 4), // 3k
	newRequest(`MATCH ALL SIMPLE p = (?x)-[(:Likes/:Has_creator)+]->(?y)`, 4),   // 2.9k
	newRequest(`MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)`, 4),                   // 64k
	newRequest(`MATCH ALL ACYCLIC p = (?x)-[:Knows+]->(?y)`, 2),                 // 6.1k
	newRequest(`MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)`, 4),           // 58k
	newRequest(`MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)`, 2),           // 6.1k
	newRequest(`MATCH ALL WALK p = (?x)-[(:Knows|:Likes)+]->(?y)`, 2),           // 10k
	newRequest(`MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)`, 3),          // 19k
	newRequest(`MATCH ALL SIMPLE p = (?x)-[(:Likes/:Has_creator)+]->(?y)`, 6),   // 6.4k
	newRequest(`MATCH SHORTEST 2 GROUP TRAIL p = (?x)-[:Knows+]->(?y)`, 3),      // 20k
	newRequest(`MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)`, 3),                   // 20k
	newRequest(`MATCH ALL ACYCLIC p = (?x)-[:Knows+]->(?y)`, 3),                 // 20k
	newRequest(`MATCH ALL WALK p = (?x)-[(:Knows|:Likes)+]->(?y)`, 3),           // 33k
	newRequest(`MATCH ALL ACYCLIC p = (?x)-[:Knows+]->(?y)`, 4),                 // 63k
}

// hotReach is hot-delivery's pool of cached path-free answers.
var hotReach = []*request{
	newReach(`MATCH WALK p = (?x)-[:Knows+]->(?y)`, "count-pairs", 3),
	newReach(`MATCH WALK p = (?x)-[:Likes/:Has_creator]->(?y)`, "pairs", 4),
	newReach(`MATCH ANY SHORTEST WALK p = (?x:Person)-[:Knows+]->(?y)`, "exists", 4),
	newReach(`MATCH WALK p = (?x)-[:Knows/:Knows]->(?y)`, "pairs", 4),
}

// ingestShapes make ingest-read's reader pool. Knows inserts invalidate
// the Knows results (label footprint) and the daemon evaluates them again
// through the copy-on-write overlay; the Likes/Has_creator results stay
// cached from the warm-up on. Three of the four path queries read Knows,
// so the query median lies among the evaluated answers and not on the
// boundary between cached and evaluated ones, where it would jump with
// the writer's timing. The reach question reads Likes/Has_creator
// only, so its kernel index is built once, on the seed graph: a kernel
// reach over Knows builds a full bitset index (about 112 MB on this
// graph) for every new epoch, and cached results pin those epochs, which
// drove the daemon past 2.5 GB in a 10-second probe. README.md records
// this.
var ingestShapes = []shape{
	{text: `MATCH ALL TRAIL p = (?x {id:@})-[:Knows+]->(?y)`},
	{text: `MATCH ANY SHORTEST WALK p = (?x {id:@})-[(:Knows|:Likes)+]->(?y)`},
	{text: `MATCH SHORTEST 2 WALK p = (?x {id:@})-[:Knows+]->(?y)`},
	{text: `MATCH ALL WALK p = (?x {id:@})-[(:Likes/:Has_creator)+]->(?y)`, static: true},
	{text: `MATCH WALK p = (?x {id:@})-[(:Likes/:Has_creator)+]->(?y)`, mode: "pairs", static: true},
}

// ingestPoolPersons is the number of seeded start persons in ingest-read's
// reader pool, which has len(ingestShapes) times as many entries: fewer
// than the 128-entry result LRU.
const ingestPoolPersons = 16

func (s shape) request(id int) *request {
	var r *request
	if s.mode != "" {
		r = newReach(s.at(id), s.mode, 0)
	} else {
		r = newRequest(s.at(id), 0)
	}
	r.static = s.static
	return r
}

// workload describes one traffic mix.
type workload struct {
	name    string
	why     string
	persons int  // SNB persons of the served graph (messages = 2x)
	durable bool // daemon runs with -data-dir and receives the writer's batches
	readers int  // closed-loop reader connections
	// daemonProcs is the daemon's GOMAXPROCS; 0 gives it every CPU.
	daemonProcs int
	// next returns a reader's request generator; rng is seeded from the
	// run seed and the reader index.
	next func(rng *rand.Rand) func() *request
	// warm lists requests run once before timing, to fill the result and
	// reach LRUs.
	warm func() []*request
}

const (
	writerBatchOps = 16
	// writerRate is the writer's batches per second: 800 ops/s, a
	// compaction about every 5 s. At 100 batches/s the daemon ran close to
	// the capacity of two CPUs, and ingest and read latencies doubled in
	// some runs and not in others.
	writerRate = 50
)

// blocks returns an endless sequence of indices into a pool of
// len(counts) entries: each block holds entry i counts[i] times, shuffled
// by rng. Every complete block has the same composition, so a run's mix
// of requests does not vary with the seed; only their order does.
func blocks(rng *rand.Rand, counts []int) func() int {
	var block []int
	for i, c := range counts {
		for j := 0; j < c; j++ {
			block = append(block, i)
		}
	}
	next := len(block)
	return func() int {
		if next == len(block) {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			next = 0
		}
		next++
		return block[next-1]
	}
}

// zipfCounts returns per-block counts of a Zipf(s=1.2) draw over n ranks,
// scaled to about total requests per block (at least one per rank).
func zipfCounts(n, total int) []int {
	w := make([]float64, n)
	sum := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -1.2)
		sum += w[k]
	}
	counts := make([]int, n)
	for k := range w {
		counts[k] = max(1, int(math.Round(float64(total)*w[k]/sum)))
	}
	return counts
}

var workloads = map[string]*workload{
	"cold-paths": {
		name:    "cold-paths",
		why:     "5000-person graph, one client, 75k distinct seeded requests (21% reach) overflow the result and plan caches: parse, plan, product search and reach kernel do the work",
		persons: 5000,
		// One client on one daemon CPU, the load generator on the other.
		// With two clients, requests queued behind each other and behind
		// the load generator, and the 99th percentile spread 18-31% over
		// ten seeds. With two daemon CPUs, each query's search is split
		// into two shards, and on these small answers that cost a quarter
		// more CPU per query and made every latency swing with the host.
		readers:     1,
		daemonProcs: 1,
		next: func(rng *rand.Rand) func() *request {
			// Per block: every query shape 4 times, every reach shape 3
			// times (21% reach).
			counts := make([]int, len(coldShapes)+len(reachShapes))
			for i := range counts {
				counts[i] = 4
				if i >= len(coldShapes) {
					counts[i] = 3
				}
			}
			pick := blocks(rng, counts)
			return func() *request {
				k, id := pick(), 1+rng.Intn(5000)
				if k < len(coldShapes) {
					return coldShapes[k].request(id)
				}
				return reachShapes[k-len(coldShapes)].request(id)
			}
		},
	},
	"hot-delivery": {
		name:    "hot-delivery",
		why:     "500-person graph, Zipf draws over 16 whole-graph answers (1k-64k paths) and 4 reach answers, all in the warmed LRUs: cache, paging, NDJSON and HTTP do the work",
		persons: 500,
		readers: 2,
		next: func(rng *rand.Rand) func() *request {
			q := blocks(rng, zipfCounts(len(hotPool), 100))
			r := blocks(rng, zipfCounts(len(hotReach), 20))
			i := 0
			return func() *request {
				i++
				if i%2 == 0 {
					return hotReach[r()]
				}
				return hotPool[q()]
			}
		},
		warm: func() []*request { return append(append([]*request(nil), hotPool...), hotReach...) },
	},
	"ingest-read": {
		name:    "ingest-read",
		why:     "5000-person WAL-durable graph: open-loop ingest of 50 batches/s (new persons, Knows) beside one reader over 80 seeded requests (3 in 5 read Knows), then SIGKILL and recovery",
		persons: 5000,
		durable: true,
		readers: 1,
		warm:    ingestPool,
		next: func(rng *rand.Rand) func() *request {
			pool := ingestPool()
			counts := make([]int, len(pool))
			for i := range counts {
				counts[i] = 1
			}
			pick := blocks(rng, counts)
			return func() *request { return pool[pick()] }
		},
	},
}

// ingestPool builds ingest-read's reader pool. Its start persons are
// fixed, like hot-delivery's pool, because answer sizes differ widely
// between persons and a seed-drawn pool of 16 moved every figure by 20-35%
// between seeds; the seed drives the request order and the writer's
// batches.
func ingestPool() []*request {
	rng := rand.New(rand.NewSource(0x5eed))
	var pool []*request
	for i := 0; i < ingestPoolPersons; i++ {
		id := 1 + rng.Intn(5000)
		for _, s := range ingestShapes {
			pool = append(pool, s.request(id))
		}
	}
	return pool
}

// graphConfig mirrors pathalgebrad's -snb-persons graph.
func graphConfig(persons int) ldbc.Config {
	cfg := ldbc.DefaultConfig()
	cfg.Persons = persons
	cfg.Messages = 2 * persons
	return cfg
}

func (w *workload) daemonArgs(dataDir string) []string {
	args := []string{"-snb-persons", strconv.Itoa(w.persons), "-maxlen", "4"}
	if w.durable {
		args = append(args, "-data-dir", dataDir)
	}
	return args
}

// updateBatches generates the writer's insert stream: new persons and
// Knows edges among them only. The edges still invalidate every cached
// Knows result, but the answers of the seeded readers stay the same, so
// the read load does not grow as the run goes on.
func updateBatches(n int, seed int64) ([]graph.Batch, error) {
	return ldbc.UpdateStream(ldbc.UpdateConfig{
		Batches:         n,
		OpsPerBatch:     writerBatchOps,
		ExistingPersons: 0,
		PersonFraction:  0.1,
		Seed:            seed,
	})
}

// encodeBatch renders a batch in POST /ingest's NDJSON form.
func encodeBatch(b graph.Batch) []byte {
	type value struct {
		Kind string  `json:"kind"`
		Str  *string `json:"str,omitempty"`
		Int  *int64  `json:"int,omitempty"`
	}
	type op struct {
		Op    string           `json:"op"`
		Key   string           `json:"key"`
		Src   string           `json:"src,omitempty"`
		Dst   string           `json:"dst,omitempty"`
		Label string           `json:"label,omitempty"`
		Props map[string]value `json:"props,omitempty"`
	}
	var out []byte
	for _, o := range b.Ops {
		j := op{Op: o.Kind.String(), Key: o.Key, Src: o.Src, Dst: o.Dst, Label: o.Label}
		for k, v := range o.Props {
			if j.Props == nil {
				j.Props = make(map[string]value)
			}
			switch v.Kind {
			case graph.KindString:
				s := v.Str()
				j.Props[k] = value{Kind: "string", Str: &s}
			case graph.KindInt:
				i := v.Int()
				j.Props[k] = value{Kind: "int", Int: &i}
			default:
				panic(fmt.Sprintf("pathbench: unsupported property kind %v", v.Kind))
			}
		}
		line, err := json.Marshal(j)
		if err != nil {
			panic(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}
