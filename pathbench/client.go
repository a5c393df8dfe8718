package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"strconv"
	"time"

	"pathalgebra/internal/obs"
)

// The load generator is one process holding at most maxConns keep-alive
// connections to the daemon. Each worker goroutine owns one conn and has
// at most one request outstanding, so a worker is a connection. A conn
// reads every response through one bounded bufio.Reader that it reuses
// for its whole life: unlike the BenchmarkServerThroughput client in
// bench_test.go, it allocates no per-page buffer, so its own cost stays
// small and is reported apart (loadgen.cpu_s).

const (
	maxConns    = 2
	readBufSize = 64 << 10
)

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// hashSeed keys the order-independent answer hashes; daemon answers and
// in-process answers are hashed in the same process.
var hashSeed = maphash.MakeSeed()

// answer is what the oracle compares: for /query the number of NDJSON
// path lines and the sum of their hashes (so delivery order does not
// matter); for /reach the count, the existence flag and the sum of the
// hashes of the rendered pairs.
type answer struct {
	n      int
	hash   uint64
	exists bool
}

// conn is one load-generator connection's state.
type conn struct {
	hc   *http.Client
	base string
	br   *bufio.Reader
	line []byte       // reassembles lines longer than the read buffer
	body bytes.Buffer // reused for whole small JSON bodies
}

func newConn(hc *http.Client, base string) *conn {
	return &conn{hc: hc, base: base, br: bufio.NewReaderSize(nil, readBufSize)}
}

// errStatus is a non-success HTTP answer.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// refused reports whether err is an admission-control refusal (429).
func refused(err error) bool {
	var es *errStatus
	return errors.As(err, &es) && es.code == http.StatusTooManyRequests
}

func (c *conn) do(method, path string, body []byte, contentType string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.br.Reset(resp.Body)
	return resp, nil
}

// finish drains and closes a response so its connection is reused.
func (c *conn) finish(resp *http.Response) {
	io.Copy(io.Discard, c.br)
	resp.Body.Close()
	c.br.Reset(nil)
}

// readBody reads a whole (small) response body into c.body; the slice is
// valid until the next read.
func (c *conn) readBody() ([]byte, error) {
	c.body.Reset()
	_, err := c.body.ReadFrom(c.br)
	return c.body.Bytes(), err
}

// expect checks a response status, turning anything else into errStatus.
func (c *conn) expect(resp *http.Response, code int) error {
	if resp.StatusCode == code {
		return nil
	}
	b, _ := c.readBody()
	c.finish(resp)
	return &errStatus{code: resp.StatusCode, body: string(bytes.TrimSpace(b))}
}

// readLine returns the next line without its newline; the slice is valid
// until the next read.
func (c *conn) readLine() ([]byte, error) {
	b, err := c.br.ReadSlice('\n')
	if err == nil {
		return b[:len(b)-1], nil
	}
	if !errors.Is(err, bufio.ErrBufferFull) {
		return nil, err
	}
	c.line = append(c.line[:0], b...)
	for {
		b, err = c.br.ReadSlice('\n')
		c.line = append(c.line, b...)
		if err == nil {
			return c.line[:len(c.line)-1], nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return nil, err
		}
	}
}

// queryOutcome is what one drained cursor delivered.
type queryOutcome struct {
	ans    answer
	cached bool // the daemon answered from its result LRU
	pages  int
	bytes  int64           // path-line bytes, newlines included
	trace  []*obs.SpanJSON // the daemon's span tree, when traced
}

var pathLinePrefix = []byte(`{"nodes"`)

type trailer struct {
	Done  bool            `json:"done"`
	Trace []*obs.SpanJSON `json:"trace"`
}

// query runs POST /query and drains the cursor page by page until the
// trailer reports done.
func (c *conn) query(body []byte, traced bool) (queryOutcome, error) {
	var out queryOutcome
	path := "/query"
	if traced {
		path += "?trace=1"
	}
	resp, err := c.do(http.MethodPost, path, body, "application/json")
	if err != nil {
		return out, err
	}
	if err := c.expect(resp, http.StatusCreated); err != nil {
		return out, err
	}
	b, err := c.readBody()
	c.finish(resp)
	if err != nil {
		return out, err
	}
	var started struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(b, &started); err != nil || started.ID == "" {
		return out, fmt.Errorf("bad /query response %q", b)
	}
	out.cached = started.Cached
	next := "/query/" + started.ID + "/next"
	for {
		resp, err := c.do(http.MethodGet, next, nil, "")
		if err != nil {
			return out, err
		}
		if err := c.expect(resp, http.StatusOK); err != nil {
			return out, err
		}
		out.pages++
		var tr trailer
		for {
			line, err := c.readLine()
			if err != nil {
				c.finish(resp)
				return out, fmt.Errorf("page %d of %s cut short: %w", out.pages, started.ID, err)
			}
			if bytes.HasPrefix(line, pathLinePrefix) {
				out.ans.n++
				out.ans.hash += maphash.Bytes(hashSeed, line)
				out.bytes += int64(len(line)) + 1
				continue
			}
			if err := json.Unmarshal(line, &tr); err != nil {
				c.finish(resp)
				return out, fmt.Errorf("bad trailer %q: %w", line, err)
			}
			break
		}
		c.finish(resp)
		if tr.Done {
			out.trace = tr.Trace
			return out, nil
		}
	}
}

// reachReply is the part of the POST /reach response the oracle checks.
type reachReply struct {
	Exists bool `json:"exists"`
	Count  int  `json:"count"`
	Pairs  []struct {
		Src string `json:"src"`
		Dst string `json:"dst"`
		Len *int32 `json:"len"`
	} `json:"pairs"`
	Trace []*obs.SpanJSON `json:"trace"`
}

// pairHash hashes one rendered endpoint pair; length -1 means absent.
func pairHash(src, dst string, length int32) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	h.WriteString(src)
	h.WriteByte(0)
	h.WriteString(dst)
	h.WriteByte(0)
	h.WriteString(strconv.Itoa(int(length)))
	return h.Sum64()
}

// reach runs POST /reach.
func (c *conn) reach(body []byte, traced bool) (answer, []*obs.SpanJSON, error) {
	path := "/reach"
	if traced {
		path += "?trace=1"
	}
	resp, err := c.do(http.MethodPost, path, body, "application/json")
	if err != nil {
		return answer{}, nil, err
	}
	if err := c.expect(resp, http.StatusOK); err != nil {
		return answer{}, nil, err
	}
	b, err := c.readBody()
	c.finish(resp)
	if err != nil {
		return answer{}, nil, err
	}
	var r reachReply
	if err := json.Unmarshal(b, &r); err != nil {
		return answer{}, nil, fmt.Errorf("bad /reach response: %w", err)
	}
	a := answer{n: r.Count, exists: r.Exists}
	for _, p := range r.Pairs {
		l := int32(-1)
		if p.Len != nil {
			l = *p.Len
		}
		a.hash += pairHash(p.Src, p.Dst, l)
	}
	return a, r.Trace, nil
}

// ingestReply is the part of the POST /ingest response the benchmark
// uses.
type ingestReply struct {
	Epoch     uint64 `json:"epoch"`
	DeltaSize int    `json:"delta_size"`
}

// ingest runs POST /ingest with an NDJSON batch.
func (c *conn) ingest(body []byte) (ingestReply, error) {
	var r ingestReply
	resp, err := c.do(http.MethodPost, "/ingest", body, "application/x-ndjson")
	if err != nil {
		return r, err
	}
	if err := c.expect(resp, http.StatusOK); err != nil {
		return r, err
	}
	b, err := c.readBody()
	c.finish(resp)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("bad /ingest response: %w", err)
	}
	return r, nil
}
