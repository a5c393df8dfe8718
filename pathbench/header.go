package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// header identifies a run: what ran, where, with which toolchain and
// parallelism, on which sources.
type header struct {
	Workload          string `json:"workload"`
	Why               string `json:"why"`
	Seed              int64  `json:"seed"`
	Seconds           int    `json:"seconds"`
	Trace             int    `json:"trace"`
	Host              string `json:"host"`
	GoVersion         string `json:"go_version"`
	NumCPU            int    `json:"nproc"`
	GOMAXPROCSDaemon  int    `json:"gomaxprocs_daemon"`
	GOMAXPROCSLoadgen int    `json:"gomaxprocs_loadgen"`
	Commit            string `json:"commit"`
	SourceSHA256      string `json:"source_sha256"`
}

func newHeader(o *options, w *workload) header {
	host, _ := os.Hostname()
	return header{
		Workload:          w.name,
		Why:               w.why,
		Seed:              o.seed,
		Seconds:           o.seconds,
		Trace:             o.trace,
		Host:              host,
		GoVersion:         runtime.Version(),
		NumCPU:            runtime.NumCPU(),
		GOMAXPROCSDaemon:  w.procs(),
		GOMAXPROCSLoadgen: w.loadgenProcs(),
		Commit:            gitCommit(o.root),
		SourceSHA256:      sourceDigest(o.root),
	}
}

// procs is the GOMAXPROCS the workload's daemon is started with.
func (w *workload) procs() int {
	if w.daemonProcs > 0 {
		return w.daemonProcs
	}
	return runtime.NumCPU()
}

// loadgenProcs is the load generator's GOMAXPROCS while it drives load:
// the CPUs the daemon is not given, or all of them when the daemon has
// every CPU.
func (w *workload) loadgenProcs() int {
	if n := runtime.NumCPU() - w.procs(); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// gitCommit reads HEAD without running git; a checkout without .git
// (an exported tree) reports "none".
func gitCommit(root string) string {
	b, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files of the checkout,
// so a run without git history still names the code it measured.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
