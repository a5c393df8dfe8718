// Command pathbench is the end-to-end and per-layer benchmark of
// pathalgebrad. It launches the real daemon as a child process, drives it
// over loopback HTTP from this one process, checks every answer against
// the in-process engine on the same seeded graph, and prints one JSON
// result line. See README.md in this directory; run it through run.sh,
// which builds both binaries from the checkout:
//
//	bash pathbench/run.sh --workload cold-paths --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	daemon   string // pathalgebrad binary
	out      string // output root: run directories, traces, results
	root     string // checkout root (sources, for the run header)
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: cold-paths, hot-delivery or ingest-read")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: fixes every generated request and batch")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds of load")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: the separate traced run with per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", "", "pathalgebrad binary")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for run data, traces and result records")
	flag.StringVar(&o.root, "root", ".", "checkout root, recorded in the run header")
	flag.Parse()
	w, ok := workloads[o.workload]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "pathbench: unknown -workload %q (want %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	case o.daemon == "":
		fmt.Fprintln(os.Stderr, "pathbench: -daemon is required")
		return 2
	case o.seconds < 1 || (o.trace != 0 && o.trace != 1):
		fmt.Fprintln(os.Stderr, "pathbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runRoot := filepath.Join(o.out, "run")
	err := os.MkdirAll(runRoot, 0o755)
	var runDir string
	if err == nil {
		runDir, err = os.MkdirTemp(runRoot, w.name+"-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	hdr := newHeader(&o, w)
	var res *result
	if o.trace == 1 {
		res, err = runTraced(ctx, &o, w, runDir)
	} else {
		res, err = runEndToEnd(ctx, &o, w, runDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathbench:", err)
		return 1
	}
	res.print(os.Stdout, hdr)
	if err := res.save(filepath.Join(o.out, "results"), hdr); err != nil {
		fmt.Fprintln(os.Stderr, "pathbench: save result record:", err)
	}
	if !res.correct {
		fmt.Fprintln(os.Stderr, "pathbench: wrong answers; see the report above")
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is one run's outcome. metrics are the ones BENCHMARK.json lists
// for the run's mode and go into the final JSON line; extra metrics apply
// to this workload only and are printed in the report.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	extra     []metric
	notes     []string
}

func (r *result) add(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{name, v, unit, n})
}

func (r *result) addExtra(name, unit string, v float64, n int) {
	r.extra = append(r.extra, metric{name, v, unit, n})
}

// print writes the human-readable report and, as the last line, the
// result JSON.
func (r *result) print(f *os.File, hdr header) {
	fmt.Fprintf(f, "pathbench %s seed=%d seconds=%d trace=%d\n", hdr.Workload, hdr.Seed, hdr.Seconds, hdr.Trace)
	fmt.Fprintf(f, "host=%s go=%s nproc=%d gomaxprocs_daemon=%d gomaxprocs_loadgen=%d commit=%s source_sha256=%s\n",
		hdr.Host, hdr.GoVersion, hdr.NumCPU, hdr.GOMAXPROCSDaemon, hdr.GOMAXPROCSLoadgen, hdr.Commit, hdr.SourceSHA256)
	fmt.Fprintf(f, "workload: %s\n", hdr.Why)
	fmt.Fprintf(f, "%-36s %14s  %-8s %8s\n", "metric", "value", "unit", "samples")
	for _, m := range append(append([]metric(nil), r.metrics...), r.extra...) {
		fmt.Fprintf(f, "%-36s %14.6g  %-8s %8d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, n := range r.notes {
		fmt.Fprintln(f, "note:", n)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]jm)}
	for _, m := range r.metrics {
		out.Metrics[m.Name] = jm{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintf(f, "%s\n", b)
}

// save writes the run's record (header plus every metric) as JSON.
func (r *result) save(dir string, hdr header) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := struct {
		Header    header   `json:"header"`
		Correct   bool     `json:"correct"`
		Attempted int      `json:"attempted"`
		Failed    int      `json:"failed"`
		Metrics   []metric `json:"metrics"`
		Extra     []metric `json:"workload_metrics"`
		Notes     []string `json:"notes,omitempty"`
	}{hdr, r.correct, r.attempted, r.failed, r.metrics, r.extra, r.notes}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", hdr.Workload, hdr.Seed, hdr.Trace, time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// latencies returns the latencies in milliseconds of the successful reads
// of one kind.
func latencies(reads []sample, reach bool) []float64 {
	var xs []float64
	for i := range reads {
		if reads[i].err == nil && reads[i].req.reach == reach {
			xs = append(xs, ms(reads[i].latency()))
		}
	}
	return xs
}

// countFailures tallies failed, refused (429) and erroring requests, and
// keeps the first few errors as notes.
func countFailures(res *result, reads []sample, writes []write) {
	for i := range reads {
		res.attempted++
		if err := reads[i].err; err != nil {
			res.failed++
			if len(res.notes) < 8 {
				res.notes = append(res.notes, fmt.Sprintf("%s failed (refused=%v): %v", reads[i].req.key, refused(err), err))
			}
		}
	}
	for i := range writes {
		res.attempted++
		if err := writes[i].err; err != nil {
			res.failed++
			if len(res.notes) < 8 {
				res.notes = append(res.notes, fmt.Sprintf("ingest batch %d failed: %v", writes[i].idx, err))
			}
		}
	}
}

// applyVerdict folds an oracle verdict into the result.
func applyVerdict(res *result, v verdict) {
	res.failed += v.wrong
	if v.wrong > 0 {
		res.correct = false
	}
	for _, n := range v.notes {
		res.notes = append(res.notes, "wrong answer: "+n)
	}
	res.notes = append(res.notes, fmt.Sprintf("oracle: %d answers compared with the in-process engine, %d wrong", v.checked, v.wrong))
}
