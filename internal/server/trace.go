package server

import (
	"io"
	"sync"

	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/fault"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/path"
)

// Per-query tracing: ?trace=1 (or "trace": true in the body) builds an
// obs.Trace whose root span parents the request's phases — parse, plan,
// cache probe, then the engine's own plan/eval/search spans via the
// query context — and the span tree rides back on the response (the
// final page trailer for /query, a "trace" field for /reach). All spans
// are nil-safe: an untraced request threads nil spans through the same
// helpers at zero cost.

// traceCompile parses and compiles the query text under a "parse" span.
func traceCompile(root *obs.Span, query string) (core.PathExpr, error) {
	sp := root.Start("parse")
	defer sp.End()
	return compile(query)
}

// tracePlan plans the logical expression under a "plan" span. The engine
// re-plans inside its evaluation entry point — by then a plan-cache hit,
// annotated on the engine's own span — so this span carries the cold
// planning cost.
func tracePlan(root *obs.Span, eng *engine.Engine, logical core.PathExpr) core.PathExpr {
	sp := root.Start("plan")
	defer sp.End()
	plan, _ := eng.Plan(logical)
	return plan
}

// pageFlushBytes is the page buffer's flush threshold: writePage hands
// the buffered lines to the response writer whenever they pass it, so a
// page of any size up to MaxChunkSize holds about this much memory.
const pageFlushBytes = 32 << 10

// pageBufs recycles page buffers across requests. A buffer grown past
// four thresholds (a few very long keys) is dropped rather than pooled.
var pageBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2*pageFlushBytes)
	return &b
}}

// writePage renders one page's path lines into a pooled buffer and
// writes them under a "deliver" span of the cursor's trace (no-op spans
// when the query is untraced), returning the bytes the writer accepted.
// Paths render with the stream's pinned graph view: the IDs were minted
// at that epoch, and compaction may have remapped IDs in the current
// one. The fault site fires once per line; when it does, the whole lines
// already buffered are written before the error returns, so a cut page
// still ends on a line boundary. A write error severs the page — the
// caller must NOT write the trailer (a severed page without a trailer is
// how clients detect the cut).
func writePage(w io.Writer, cur *cursor, page []path.Path) (int, error) {
	sp := cur.root.Start("deliver")
	defer sp.End()
	sp.SetInt("paths", int64(len(page)))
	bp := pageBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	g := cur.stream.Graph()
	written := 0
	var err error
	for _, p := range page {
		if err = fault.Hit("server.write"); err != nil {
			break
		}
		buf = appendPathLine(buf, g, p)
		if len(buf) < pageFlushBytes {
			continue
		}
		var n int
		n, err = w.Write(buf)
		written += n
		buf = buf[:0]
		if err != nil {
			break
		}
	}
	if len(buf) > 0 { // only after a clean loop or a fault: a failed Write empties buf
		n, werr := w.Write(buf)
		written += n
		if err == nil {
			err = werr
		}
	}
	if cap(buf) <= 4*pageFlushBytes {
		*bp = buf
		pageBufs.Put(bp)
	}
	sp.SetInt("bytes", int64(written))
	return written, err
}
