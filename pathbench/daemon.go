package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one pathalgebrad child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	logErr chan error
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

var servingRE = regexp.MustCompile(`serving .* on ([0-9.]+:[0-9]+) `)

// startDaemon runs bin with args, listening on a kernel-chosen loopback
// port, and returns once GET /healthz answers 200. The returned duration
// runs from exec to that answer: graph generation, statistics, WAL open
// and listener start-up. The daemon's log goes to logPath.
func startDaemon(ctx context.Context, bin string, args []string, logPath string, gomaxprocs int) (*daemon, time.Duration, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logFile.Close()
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, logErr: make(chan error, 1), exited: make(chan struct{})}

	// The daemon logs its bound address once the listener is up; the rest
	// of its log is copied to logPath until it exits.
	addr := make(chan string, 1)
	go func() {
		defer logFile.Close()
		br := bufio.NewReader(stderr)
		sent := false
		for {
			line, err := br.ReadString('\n')
			logFile.WriteString(line)
			if m := servingRE.FindStringSubmatch(line); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
			if err != nil {
				if !sent {
					close(addr)
				}
				d.logErr <- nil
				return
			}
		}
	}()
	go func() {
		<-d.logErr // Wait must not close the pipe before the log is read
		d.err = cmd.Wait()
		close(d.exited)
	}()

	fail := func(err error) (*daemon, time.Duration, error) {
		d.kill()
		return nil, 0, fmt.Errorf("%w (daemon log: %s)", err, logPath)
	}
	var a string
	select {
	case a0, ok := <-addr:
		if !ok {
			return fail(errors.New("pathalgebrad exited before serving"))
		}
		a = a0
	case <-time.After(60 * time.Second):
		return fail(errors.New("pathalgebrad did not start within 60s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	d.base = "http://" + a
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 60*time.Second {
			return fail(errors.New("pathalgebrad /healthz not ready within 60s"))
		}
		select {
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	setup := time.Since(t0)
	hc.CloseIdleConnections()
	return d, setup, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to drain (SIGTERM) and waits for it to exit,
// killing it if it has not exited within 15 seconds.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return d.err
	case <-time.After(15 * time.Second):
		d.kill()
		return errors.New("pathalgebrad did not drain within 15s")
	}
}

// kill SIGKILLs the daemon and waits for it to exit.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// get fetches path from the daemon and returns the body.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return b, nil
}

// scrape is one reading of the daemon's /metrics, keyed by series (name
// plus label set).
type scrape map[string]float64

func (d *daemon) scrape() (scrape, error) {
	b, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	m := make(scrape)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, nil
}

// delta returns the change of a series between two scrapes.
func delta(a, b scrape, series string) float64 { return b[series] - a[series] }

var totalAllocRE = regexp.MustCompile(`(?m)^# TotalAlloc = ([0-9]+)$`)

// totalAlloc reads the daemon's cumulative heap allocation in bytes from
// the runtime.MemStats footer of /debug/pprof/heap (served with -pprof).
func (d *daemon) totalAlloc() (float64, error) {
	b, err := d.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	m := totalAllocRE.FindSubmatch(b)
	if m == nil {
		return 0, errors.New("no TotalAlloc in /debug/pprof/heap")
	}
	return strconv.ParseFloat(string(m[1]), 64)
}
