package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/fault"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
)

// encoderPathLine is the reference rendering of a path line:
// encoding/json's Encoder over the decoded line type.
func encoderPathLine(t testing.TB, g *graph.Graph, p path.Path) []byte {
	t.Helper()
	v := pathJSON{Nodes: []string{}, Edges: []string{}, Len: p.Len()}
	for _, n := range p.Nodes() {
		v.Nodes = append(v.Nodes, g.Node(n).Key)
	}
	for _, e := range p.Edges() {
		v.Edges = append(v.Edges, g.Edge(e).Key)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// edgeGraph builds the one-edge graph src -[key]-> dst (a self-loop when
// src == dst) and returns the edge's path. ok is false when the keys
// collide (node and edge keys share one namespace).
func edgeGraph(src, dst, key string) (*graph.Graph, path.Path, bool) {
	b := graph.NewBuilder()
	s := b.AddNode(src, "N", nil)
	d := s
	if dst != src {
		d = b.AddNode(dst, "N", nil)
	}
	e := b.AddEdge(key, src, dst, "E", nil)
	g, err := b.Build()
	if err != nil {
		return nil, path.Path{}, false
	}
	p, err := path.New(g, []graph.NodeID{s, d}, []graph.EdgeID{e})
	if err != nil {
		return nil, path.Path{}, false
	}
	return g, p, true
}

// checkPathLines renders the edge path and its zero-length prefix both
// ways and compares the bytes.
func checkPathLines(t *testing.T, src, dst, key string) {
	t.Helper()
	g, p, ok := edgeGraph(src, dst, key)
	if !ok {
		return
	}
	for _, q := range []path.Path{p, path.FromNode(p.First())} {
		got := appendPathLine(nil, g, q)
		if want := encoderPathLine(t, g, q); !bytes.Equal(got, want) {
			t.Fatalf("keys %q %q %q:\n got  %s\n want %s", src, dst, key, got, want)
		}
	}
}

// fuzzKeys seed the key fuzzer and double as the fixed escaping cases:
// HTML-significant bytes, quote and backslash, control bytes with and
// without short escapes, the JavaScript line separators and invalid
// UTF-8.
var fuzzKeys = []string{
	"n1", "", "<>&", `"\`, "\x01\b\f", "\n\r\t\x1f\x7f", "\u2028\u2029", "\xff\xfe",
	"é€😀", "a\xe2\x80", "\xed\xa0\x80", "</script>",
}

func TestAppendPathLineMatchesEncoder(t *testing.T) {
	for i, k := range fuzzKeys {
		checkPathLines(t, "src"+k, k+"dst", fmt.Sprintf("e%d%s", i, k))
	}
	// Every single byte value on its own, in each position.
	for b := 0; b < 256; b++ {
		k := string([]byte{byte(b)})
		checkPathLines(t, k, "d", "e")
		checkPathLines(t, "s", k, "e")
		checkPathLines(t, "s", "d", k)
	}
}

// FuzzNDJSONPathLine: for any node and edge keys (which arrive through
// POST /ingest), the append encoder's path line is byte-identical to
// encoding/json's.
func FuzzNDJSONPathLine(f *testing.F) {
	for i, k := range fuzzKeys {
		f.Add(k, "n", fmt.Sprintf("e%d", i))
		f.Add("n", "m", k)
	}
	f.Fuzz(checkPathLines)
}

// fetchPage GETs one cursor page and returns its raw path lines
// (newline included) and the trailer, nil when the page was cut.
func fetchPage(t *testing.T, base, id string) ([]string, *pageTrailer) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/query/%s/next", base, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET next status = %d", resp.StatusCode)
	}
	var lines []string
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadString('\n')
		if err == io.EOF && line == "" {
			return lines, nil
		}
		if err != nil {
			t.Fatalf("reading page: %v (partial line %q)", err, line)
		}
		if strings.HasPrefix(line, `{"nodes":`) {
			lines = append(lines, line)
			continue
		}
		var tr pageTrailer
		if err := json.Unmarshal([]byte(line), &tr); err != nil {
			t.Fatalf("bad trailer %q: %v", line, err)
		}
		return lines, &tr
	}
}

// drainRaw pages a cursor to exhaustion with no faults expected,
// returning the raw path lines and the final trailer.
func drainRaw(t *testing.T, base, id string) ([]string, pageTrailer) {
	t.Helper()
	var all []string
	for page := 0; page < 1000; page++ {
		lines, tr := fetchPage(t, base, id)
		if tr == nil {
			t.Fatal("page cut with no fault armed")
		}
		all = append(all, lines...)
		if tr.Done {
			return all, *tr
		}
	}
	t.Fatal("cursor never exhausted")
	return nil, pageTrailer{}
}

// TestSeveredPageRetry: a page cut by a write fault — mid-page, at its
// trailer, or on the last page — leaves the cursor where it was, so a
// retry serves the same page and the client ends up with exactly the
// unfaulted answer.
func TestSeveredPageRetry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		chunk int
		nth   int // write-fault hit to cut: lines and trailers count alike
	}{
		{"mid-page", 3, 6},     // second page, second line
		{"at-trailer", 3, 4},   // first page's trailer
		{"only-page", 1000, 2}, // the last (and only) page
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Graph: ldbc.Figure1(), CacheSize: -1,
				Engine: engine.Options{Limits: core.Limits{MaxLen: 4}}})
			open := func() string {
				resp := postJSON(t, ts.URL+"/query", queryRequest{Query: obsQuery, ChunkSize: tc.chunk})
				return decodeBody[queryResponse](t, resp).ID
			}
			want, _ := drainRaw(t, ts.URL, open())

			id := open()
			var got []string
			restore := fault.Arm(fault.Schedule{Rules: []fault.Rule{{Site: "server.write", Nth: tc.nth}}})
			for {
				lines, tr := fetchPage(t, ts.URL, id)
				if tr == nil {
					break // cut: its lines are discarded, the page is retried
				}
				got = append(got, lines...)
				if tr.Done {
					t.Fatal("cursor exhausted before the armed fault fired")
				}
			}
			restore()
			rest, tr := drainRaw(t, ts.URL, id)
			got = append(got, rest...)
			if strings.Join(got, "") != strings.Join(want, "") {
				t.Fatalf("after retry: %d lines, unfaulted answer %d lines (or contents differ)", len(got), len(want))
			}
			if tr.Delivered != int64(tr.Total) || tr.Total != len(want) {
				t.Fatalf("final trailer %+v, want delivered = total = %d", tr, len(want))
			}
		})
	}
}

// BenchmarkPageDelivery renders untraced pages of 64 and 1024 paths to
// io.Discard. allocs/op must not depend on the page size: the page
// buffer is pooled and the encoder appends into it
// (scripts/check_allocs.sh gates this).
func BenchmarkPageDelivery(b *testing.B) {
	g := ldbc.Figure1()
	eng := engine.New(g, engine.Options{Limits: core.Limits{MaxLen: 4}})
	res, err := eng.Run(gql.MustCompile(`MATCH WALK p = (?x)-[:Knows+]->(?y)`))
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{64, 1024} {
		page := make([]path.Path, size)
		for i := range page {
			page[i] = res.At(i % res.Len())
		}
		cur := &cursor{stream: engine.StreamOf(g, res, size)}
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			b.ReportAllocs()
			var n int
			for i := 0; i < b.N; i++ {
				n, err = writePage(io.Discard, cur, page)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(n))
		})
	}
}
