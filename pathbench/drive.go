package main

import (
	"context"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pathalgebra/internal/obs"
)

// sample is one read: a drained /query cursor or a /reach answer.
type sample struct {
	req        *request
	start, end time.Time
	ans        answer
	cached     bool // /query answered from the result LRU
	pages      int
	bytes      int64
	err        error
	trace      []*obs.SpanJSON
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.start) }

// write is one POST /ingest of the open-loop writer.
type write struct {
	idx              int
	due, sent, acked time.Time
	bytes            int
	reply            ingestReply
	err              error
}

// phase is what one timed stretch of load produced.
type phase struct {
	reads   []sample
	writes  []write
	start   time.Time
	elapsed time.Duration
}

// rates returns the reads completed and the path lines delivered per
// second, each as the interquartile mean over the phase's whole seconds:
// a few seconds in which the host ran slow or fast move it less than they
// move the run's plain mean.
func (p *phase) rates() (reads, paths float64) {
	n := int(p.elapsed / time.Second)
	if n == 0 {
		return float64(len(p.reads)) / p.elapsed.Seconds(), 0
	}
	r := make([]float64, n)
	q := make([]float64, n)
	for i := range p.reads {
		s := &p.reads[i]
		k := int(s.end.Sub(p.start) / time.Second)
		if s.err != nil || k >= n {
			continue
		}
		r[k]++
		if !s.req.reach {
			q[k] += float64(s.ans.n)
		}
	}
	return midMean(r), midMean(q)
}

// runRead executes one read on c.
func runRead(c *conn, r *request, traced bool) sample {
	s := sample{req: r, start: time.Now()}
	if r.reach {
		s.ans, s.trace, s.err = c.reach(r.body, traced)
	} else {
		var out queryOutcome
		out, s.err = c.query(r.body, traced)
		s.ans, s.cached, s.pages, s.bytes, s.trace = out.ans, out.cached, out.pages, out.bytes, out.trace
	}
	s.end = time.Now()
	return s
}

// readerSeed derives reader i's generator seed from the run seed, so a
// seed fixes every reader's request sequence.
func readerSeed(seed int64, i int) int64 { return seed*7919 + int64(i) }

// drive runs the workload's closed-loop readers, plus the open-loop
// writer over batches[from:] when the workload has one, for dur. Readers
// stop issuing at the deadline; the phase ends when the last in-flight
// request completes. The writer sends batch k at start + k/writerRate and
// times each write from that due time, so a stall counts against every
// write queued behind it. The load generator runs on w.loadgenProcs()
// CPUs meanwhile.
func drive(ctx context.Context, hc *http.Client, base string, w *workload, seed int64, dur time.Duration, traced bool, batches [][]byte, from int) *phase {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.loadgenProcs()))
	var wg sync.WaitGroup
	reads := make([][]sample, w.readers)
	t0 := time.Now()
	deadline := t0.Add(dur)
	for i := 0; i < w.readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newConn(hc, base)
			next := w.next(rand.New(rand.NewSource(readerSeed(seed, i))))
			for ctx.Err() == nil && time.Now().Before(deadline) {
				reads[i] = append(reads[i], runRead(c, next(), traced))
			}
		}(i)
	}
	var writes []write
	if w.durable {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(hc, base)
			for k := 0; from+k < len(batches) && ctx.Err() == nil; k++ {
				due := t0.Add(time.Duration(k) * time.Second / writerRate)
				if !due.Before(deadline) {
					return
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				wr := write{idx: from + k, due: due, sent: time.Now(), bytes: len(batches[from+k])}
				wr.reply, wr.err = c.ingest(batches[from+k])
				wr.acked = time.Now()
				writes = append(writes, wr)
			}
		}()
	}
	wg.Wait()
	p := &phase{writes: writes, start: t0, elapsed: time.Since(t0)}
	for _, rs := range reads {
		p.reads = append(p.reads, rs...)
	}
	return p
}

// warm runs each request once on one connection, untimed.
func warm(hc *http.Client, base string, reqs []*request) []sample {
	c := newConn(hc, base)
	out := make([]sample, 0, len(reqs))
	for _, r := range reqs {
		out = append(out, runRead(c, r, false))
	}
	return out
}
