package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

// setupLaunches is how many times a run starts the daemon to report the
// median set-up time; the last start serves the load.
const setupLaunches = 15

// launch starts the workload's daemon setupLaunches times, stopping all
// but the last, and returns the set-up times, the serving daemon and its
// data directory (durable workloads get a fresh one per start).
func launch(ctx context.Context, o *options, w *workload, runDir string, extra ...string) ([]float64, *daemon, string, error) {
	var setups []float64
	for i := 0; i < setupLaunches; i++ {
		dataDir := filepath.Join(runDir, fmt.Sprintf("data-%d", i))
		d, setup, err := startDaemon(ctx, o.daemon, append(w.daemonArgs(dataDir), extra...),
			filepath.Join(runDir, fmt.Sprintf("daemon-%d.log", i)), w.procs())
		if err != nil {
			return nil, nil, "", err
		}
		setups = append(setups, setup.Seconds())
		if i == setupLaunches-1 {
			return setups, d, dataDir, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, "", fmt.Errorf("stop daemon: %w", err)
		}
		if w.durable {
			os.RemoveAll(dataDir)
		}
	}
	panic("unreachable")
}

// writerBatches generates and encodes the writer's stream for a run of
// the given length; durable workloads only.
func writerBatches(w *workload, seed int64, seconds int) ([]graph.Batch, [][]byte, error) {
	if !w.durable {
		return nil, nil, nil
	}
	batches, err := updateBatches(writerRate*(seconds+1), seed)
	if err != nil {
		return nil, nil, err
	}
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		bodies[i] = encodeBatch(b)
	}
	return batches, bodies, nil
}

// runEndToEnd is the untraced run that reports the end-to-end metrics.
func runEndToEnd(ctx context.Context, o *options, w *workload, runDir string) (*result, error) {
	batches, bodies, err := writerBatches(w, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	setups, d, dataDir, err := launch(ctx, o, w, runDir)
	if err != nil {
		return nil, err
	}
	live := d
	defer func() {
		if live != nil {
			live.kill()
		}
	}()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var checked []sample
	if w.warm != nil {
		checked = warm(hc, d.base, w.warm())
	}

	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	lg0 := selfCPU()
	stopRSS := sampleRSS(d.pid(), 100*time.Millisecond)
	ph := drive(ctx, hc, d.base, w, o.seed, time.Duration(o.seconds)*time.Second, false, bodies, 0)
	rss := stopRSS()
	lg1 := selfCPU()
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	hwm, err := procPeakRSS(d.pid())
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &result{correct: true}
	countFailures(res, ph.reads, ph.writes)
	countFailures(res, checked, nil)

	// Durable workload: measure storage, crash the daemon, recover it on
	// the same data directory and read the final state back.
	var recovery time.Duration
	var final []sample
	var st daemonStats
	if w.durable {
		var ackedBytes int
		for _, wr := range ph.writes {
			if wr.err == nil {
				ackedBytes += wr.bytes
			}
		}
		stored, err := dirBytes(dataDir)
		if err != nil {
			return nil, err
		}
		res.addExtra("storage_bytes_per_user_byte", "B/B", ratio(float64(stored), float64(ackedBytes)), len(ph.writes))
		d.kill()
		live = nil
		hc.CloseIdleConnections()
		d2, rec, err := startDaemon(ctx, o.daemon, w.daemonArgs(dataDir), filepath.Join(runDir, "daemon-recovered.log"), w.procs())
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		live = d2
		recovery = rec
		if st, err = d2.stats(); err != nil {
			return nil, err
		}
		final = warm(hc, d2.base, ingestPool())
		countFailures(res, final, nil)
		hc.CloseIdleConnections()
		if err := d2.stop(); err != nil {
			return nil, err
		}
		live = nil
	} else {
		hc.CloseIdleConnections()
		if err := d.stop(); err != nil {
			return nil, err
		}
		live = nil
	}

	g, err := ldbc.Generate(graphConfig(w.persons))
	if err != nil {
		return nil, err
	}
	if w.durable {
		v, rep, err := checkLive(ctx, g, append(checked, ph.reads...), ph.writes, batches, ingestPool())
		if err != nil {
			return nil, err
		}
		for i := range final {
			s := &final[i]
			if s.err != nil {
				continue
			}
			v.checked++
			if want := rep.final[s.req.key]; s.ans != want {
				v.miss("after recovery %s: daemon %d (hash %x), replay %d (hash %x)", s.req.key, s.ans.n, s.ans.hash, want.n, want.hash)
			}
		}
		v.checked++
		if st.Graph.Nodes != rep.nodes || st.Graph.Edges != rep.edges || st.Store.Epoch != rep.epoch {
			v.miss("after recovery: daemon has %d nodes, %d edges at epoch %d; replay of the acknowledged batches has %d, %d at %d",
				st.Graph.Nodes, st.Graph.Edges, st.Store.Epoch, rep.nodes, rep.edges, rep.epoch)
		}
		applyVerdict(res, v)
	} else {
		v, err := checkStatic(ctx, g, append(checked, ph.reads...))
		if err != nil {
			return nil, err
		}
		applyVerdict(res, v)
	}

	q := latencies(ph.reads, false)
	r := latencies(ph.reads, true)
	var paths, okReads int
	for i := range ph.reads {
		if s := &ph.reads[i]; s.err == nil {
			okReads++
			if !s.req.reach {
				paths += s.ans.n
			}
		}
	}
	ops := okReads
	var ingest, late []float64
	for _, wr := range ph.writes {
		if wr.err == nil {
			ops++
			ingest = append(ingest, ms(wr.acked.Sub(wr.due)))
		}
		late = append(late, ms(wr.sent.Sub(wr.due)))
	}
	readsPerS, pathsPerS := ph.rates()
	res.add("setup_s", "s", median(setups), len(setups))
	res.add("query_p50_ms", "ms", quantile(q, 0.5), len(q))
	res.add("query_p95_ms", "ms", quantile(q, 0.95), len(q))
	res.add("reach_p50_ms", "ms", quantile(r, 0.5), len(r))
	res.add("queries_per_s", "1/s", readsPerS, okReads)
	res.add("paths_per_s", "1/s", pathsPerS, paths)
	res.add("server_cpu_ms_per_op", "ms", ratio(ms(cpu1-cpu0), float64(ops)), ops)
	res.add("rss_p50_mb", "MiB", median(rss), len(rss))
	res.addExtra("error_rate", "ratio", ratio(float64(res.failed), float64(res.attempted)), res.attempted)
	res.addExtra("query_p99_ms", "ms", quantile(q, 0.99), len(q))
	res.addExtra("reach_p99_ms", "ms", quantile(r, 0.99), len(r))
	res.addExtra("peak_rss_mb", "MiB", float64(hwm)/(1<<20), 1)
	if w.durable {
		res.addExtra("ingest_p50_ms", "ms", quantile(ingest, 0.5), len(ingest))
		res.addExtra("ingest_p99_ms", "ms", quantile(ingest, 0.99), len(ingest))
		res.addExtra("recovery_s", "s", recovery.Seconds(), 1)
		res.addExtra("loadgen.late_p99_ms", "ms", quantile(late, 0.99), len(late))
	}
	res.addExtra("loadgen.cpu_s", "s", (lg1 - lg0).Seconds(), 1)
	for _, m := range append(res.metrics, res.extra...) {
		need, pct := 0, 0
		switch m.Name {
		case "query_p95_ms":
			need, pct = 200, 95
		case "query_p99_ms", "reach_p99_ms":
			need, pct = 1000, 99
		}
		if m.Samples < need {
			res.notes = append(res.notes, fmt.Sprintf("%s rests on %d samples, fewer than 10 beyond the %dth percentile", m.Name, m.Samples, pct))
		}
	}
	return res, nil
}

// daemonStats is the part of GET /stats the recovery check reads.
type daemonStats struct {
	Graph struct {
		Nodes int `json:"nodes"`
		Edges int `json:"edges"`
	} `json:"graph"`
	Store struct {
		Epoch uint64 `json:"epoch"`
	} `json:"store"`
}

func (d *daemon) stats() (daemonStats, error) {
	var st daemonStats
	b, err := d.get("/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}
