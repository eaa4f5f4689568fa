package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Format is one of the paper's three dataset file formats (§4.3).
type Format int

const (
	// FormatAdj is an adjacency list: "src dst1 dst2 ...". Vertices
	// without out-edges may be omitted. Used by Hadoop, HaLoop, Giraph,
	// and GraphLab in the paper.
	FormatAdj Format = iota
	// FormatAdjLong requires a line per vertex and a neighbor count:
	// "src count dst1 dst2 ...". Required by Blogel so that vertices
	// with only in-edges exist.
	FormatAdjLong
	// FormatEdge has one "src dst" line per edge. Used by GraphX and
	// Flink Gelly.
	FormatEdge
)

// String returns the format name used in file extensions and logs.
func (f Format) String() string {
	switch f {
	case FormatAdj:
		return "adj"
	case FormatAdjLong:
		return "adj-long"
	case FormatEdge:
		return "edge"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// Encode writes g to w in the given format. The byte layout matches the
// paper's description so that loaders exercise realistic parsing work.
// Numbers are formatted through one reused scratch buffer, so encoding
// allocates nothing per vertex or edge.
func Encode(g *Graph, f Format, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := lineEncoder{bw: bw}
	n := g.NumVertices()
	switch f {
	case FormatAdj:
		for v := 0; v < n; v++ {
			nbrs := g.OutNeighbors(VertexID(v))
			if len(nbrs) == 0 {
				continue
			}
			enc.vertexLine(VertexID(v), -1, nbrs)
		}
	case FormatAdjLong:
		for v := 0; v < n; v++ {
			nbrs := g.OutNeighbors(VertexID(v))
			enc.vertexLine(VertexID(v), len(nbrs), nbrs)
		}
	case FormatEdge:
		for v := 0; v < n; v++ {
			for _, wid := range g.OutNeighbors(VertexID(v)) {
				enc.writeInt(v)
				bw.WriteByte(' ')
				enc.writeInt(int(wid))
				bw.WriteByte('\n')
			}
		}
	default:
		return fmt.Errorf("graph: unknown format %v", f)
	}
	return bw.Flush()
}

// lineEncoder formats integers into a reused scratch buffer.
type lineEncoder struct {
	bw      *bufio.Writer
	scratch []byte
}

func (e *lineEncoder) writeInt(x int) {
	e.scratch = strconv.AppendInt(e.scratch[:0], int64(x), 10)
	e.bw.Write(e.scratch)
}

func (e *lineEncoder) vertexLine(v VertexID, count int, nbrs []VertexID) {
	e.writeInt(int(v))
	if count >= 0 {
		e.bw.WriteByte(' ')
		e.writeInt(count)
	}
	for _, w := range nbrs {
		e.bw.WriteByte(' ')
		e.writeInt(int(w))
	}
	e.bw.WriteByte('\n')
}

// Decode parses a graph in format f from r. numVertices must be the
// total vertex count: the adj and edge formats may omit sink-only or
// isolated vertices, which nonetheless exist in the graph.
//
// Parsing works directly on the scanner's byte buffer: fields are
// subslices collected into a reused token list and integers are decoded
// without going through strings, so the loader allocates nothing per
// line — the datasets load once per run in every engine, which made the
// old string-based parse the largest allocation source in the harness.
func Decode(r io.Reader, f Format, numVertices int) (*Graph, error) {
	b := NewBuilder(numVertices)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	var fields [][]byte // subslices of the current line, reused
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		fields = splitFields(fields[:0], line)
		switch f {
		case FormatAdj:
			src, err := parseID(fields[0], numVertices)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			for _, fs := range fields[1:] {
				dst, err := parseID(fs, numVertices)
				if err != nil {
					return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
				}
				b.AddEdge(src, dst)
			}
		case FormatAdjLong:
			if len(fields) < 2 {
				return nil, fmt.Errorf("graph: line %d: adj-long needs at least 2 fields", lineNo)
			}
			src, err := parseID(fields[0], numVertices)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			count, err := parseInt(fields[1])
			if err != nil || count != len(fields)-2 {
				return nil, fmt.Errorf("graph: line %d: neighbor count %q does not match %d neighbors", lineNo, fields[1], len(fields)-2)
			}
			for _, fs := range fields[2:] {
				dst, err := parseID(fs, numVertices)
				if err != nil {
					return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
				}
				b.AddEdge(src, dst)
			}
		case FormatEdge:
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: edge format needs 2 fields, got %d", lineNo, len(fields))
			}
			src, err := parseID(fields[0], numVertices)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			dst, err := parseID(fields[1], numVertices)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			b.AddEdge(src, dst)
		default:
			return nil, fmt.Errorf("graph: unknown format %v", f)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// splitFields appends the whitespace-separated fields of line to dst as
// subslices — the allocation-free strings.Fields.
func splitFields(dst [][]byte, line []byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && asciiSpace(line[i]) {
			i++
		}
		start := i
		for i < len(line) && !asciiSpace(line[i]) {
			i++
		}
		if i > start {
			dst = append(dst, line[start:i])
		}
	}
	return dst
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// parseInt decodes a decimal integer from s without allocating.
func parseInt(s []byte) (int, error) {
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, fmt.Errorf("empty number")
	}
	const cutoff = math.MaxInt / 10
	x := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid syntax")
		}
		d := int(c - '0')
		if x > cutoff || (x == cutoff && d > math.MaxInt%10) {
			return 0, fmt.Errorf("value out of range")
		}
		x = x*10 + d
	}
	if neg {
		x = -x
	}
	return x, nil
}

func parseID(s []byte, n int) (VertexID, error) {
	id, err := parseInt(s)
	if err != nil {
		return 0, fmt.Errorf("bad vertex id %q: %v", s, err)
	}
	if id < 0 || id >= n {
		return 0, fmt.Errorf("vertex id %d out of range [0,%d)", id, n)
	}
	return VertexID(id), nil
}
