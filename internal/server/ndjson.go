package server

import (
	"encoding/json"
	"io"
	"strconv"
	"unicode/utf8"

	"pathalgebra/internal/fault"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/path"
)

// The cursor pages stream as NDJSON (one JSON document per line,
// Content-Type application/x-ndjson): zero or more path lines followed by
// exactly one trailer line. Path lines carry a "nodes" field; the trailer
// carries "done", so a line-oriented client can tell them apart without
// lookahead, and a page is self-delimiting even over chunked transfer.

// pathJSON is the decoded form of one path line: a result path rendered
// with the graph's external keys — the alternating (n1, e1, ..., ek,
// nk+1) sequence split into its node and edge tracks. appendPathLine
// renders it without going through encoding/json; its output is
// byte-identical to json.Encoder.Encode of this type.
type pathJSON struct {
	Nodes []string `json:"nodes"`
	Edges []string `json:"edges"`
	Len   int      `json:"len"`
}

// pageTrailer terminates every cursor page. Done reports whether the
// cursor is exhausted (and therefore removed server-side); Returned is
// the number of path lines on this page; Delivered and Total are the
// cursor's cumulative progress. Trace is the query's span tree, present
// only on the final page of a traced query.
type pageTrailer struct {
	Done      bool            `json:"done"`
	Returned  int             `json:"returned"`
	Delivered int64           `json:"delivered"`
	Total     int             `json:"total"`
	Trace     []*obs.SpanJSON `json:"trace,omitempty"`
}

// appendPathLine appends p as one NDJSON path line,
// {"nodes":[…],"edges":[…],"len":N} and a newline, with keys resolved
// against g.
//
//pathalgebra:hotpath
func appendPathLine(dst []byte, g *graph.Graph, p path.Path) []byte {
	dst = append(dst, `{"nodes":[`...)
	for i, n := range p.Nodes() {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, g.Node(n).Key)
	}
	dst = append(dst, `],"edges":[`...)
	for i, e := range p.Edges() {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, g.Edge(e).Key)
	}
	dst = append(dst, `],"len":`...)
	dst = strconv.AppendInt(dst, int64(p.Len()), 10)
	return append(dst, "}\n"...)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string with the escaping
// encoding/json applies by default: '"' and '\\' backslash-escaped;
// \b \f \n \r \t as short escapes and other control bytes as \u00XX;
// '<', '>' and '&' as \u003c, \u003e and \u0026 (HTML-safe); U+2028 and
// U+2029 as \u2028 and \u2029; each invalid UTF-8 byte as \ufffd.
//
//pathalgebra:hotpath
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0 // s[start:i] is pending verbatim output
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// writeNDJSON encodes one value (a page trailer) as a single NDJSON
// line. The fault site stands in for a client connection dying
// mid-page, as it does once per path line in writePage.
func writeNDJSON(w io.Writer, v any) error {
	if err := fault.Hit("server.write"); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(v) // Encode appends the newline
}
