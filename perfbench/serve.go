package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/serve"
	"graphbench/internal/singlethread"
)

// The serve workloads query the main grid's datasets. The server still
// warms all four (serve.Config{} defaults), but ClueWeb is never
// queried: a third of its responses are modeled failures, and the
// paper's main grid omits it too.
var serveDatasets = []datasets.Name{datasets.Twitter, datasets.UK, datasets.WRN}

const (
	// serveClients closed-loop clients share one keep-alive transport:
	// each sends its next request when the previous response is read.
	serveClients = 2
	// Queried cluster sizes are drawn from [minMachines, maxMachines].
	minMachines, maxMachines = 16, 128
	// warmMachines is the cluster size of set-up's first-use requests,
	// outside the queried range so it warms no queried cache key.
	warmMachines = 8
)

// Query is one served request.
type Query struct {
	Kind     engine.Kind
	Dataset  datasets.Name
	Machines int
	Vertex   int // -1: no vertex parameter (PageRank)
}

// Path renders the request path.
func (q Query) Path() string {
	p := fmt.Sprintf("/v1/%s?dataset=%s&machines=%d", q.Kind, q.Dataset, q.Machines)
	if q.Vertex >= 0 {
		p += "&vertex=" + strconv.Itoa(q.Vertex)
	}
	return p
}

// Response is what a client saw for one request.
type Response struct {
	Code    int
	Body    []byte
	Cache   string // X-Graphserve-Cache
	Plan    string // X-Graphserve-Plan
	Err     error
	Latency time.Duration
}

// Server is a serve.Server behind a loopback HTTP listener, with the
// client transport the benchmark drives it through.
type Server struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	done   chan error
	client *http.Client
}

// bootServer builds the server exactly as `graphserve` does with its
// defaults, starts it on a loopback port, and pays the lazy first-use
// work (the planner profile of each dataset) with one request per
// dataset, counted as warm-up.
func bootServer(warm *Counts) (*Server, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	s := &Server{
		srv:  srv,
		hs:   &http.Server{Handler: srv},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
			Timeout:   time.Minute,
		},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	for _, name := range datasets.AllNames() {
		resp := s.Get(Query{Kind: engine.PageRank, Dataset: name, Machines: warmMachines, Vertex: -1}.Path())
		if classify(resp.Code, resp.Body, resp.Err) != Answered {
			warm.Add(false)
			s.Close()
			return nil, fmt.Errorf("warming %s: status %d: %v", name, resp.Code, resp.Err)
		}
		warm.Add(true)
	}
	return s, nil
}

// Close stops the listener, waits for the serve loop to exit, and
// shuts the server's pools down.
func (s *Server) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // the serve loop's exit is awaited below either way
	<-s.done
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// Get sends one request and reads the whole response.
func (s *Server) Get(path string) Response {
	t0 := time.Now()
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return Response{Err: err, Latency: time.Since(t0)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return Response{
		Code:    resp.StatusCode,
		Body:    body,
		Cache:   resp.Header.Get("X-Graphserve-Cache"),
		Plan:    resp.Header.Get("X-Graphserve-Plan"),
		Err:     err,
		Latency: time.Since(t0),
	}
}

// slotShards is the worker count of each admission slot's pool under
// serve.Config{}: ceil(GOMAXPROCS / MaxInFlight) with MaxInFlight 2.
// Replays run on a pool of this size so they execute what the server
// executed.
func slotShards() int { return (runtime.GOMAXPROCS(0) + 1) / 2 }

// Oracle holds the single-thread reference answers for the served
// fixtures, computed by internal/singlethread on graphs generated the
// way the server generates them.
type Oracle struct {
	n      map[datasets.Name]int
	source map[datasets.Name]int
	dist   map[datasets.Name][]int32
	comp   map[datasets.Name][]graph.VertexID
	size   map[datasets.Name]map[graph.VertexID]int
	tri    map[datasets.Name][]int64
}

func newOracle() *Oracle {
	o := &Oracle{
		n: map[datasets.Name]int{}, source: map[datasets.Name]int{},
		dist: map[datasets.Name][]int32{}, comp: map[datasets.Name][]graph.VertexID{},
		size: map[datasets.Name]map[graph.VertexID]int{}, tri: map[datasets.Name][]int64{},
	}
	for _, name := range serveDatasets {
		// serve.Config{} runs at the default scale and seed 0.
		g := datasets.Generate(name, datasets.Options{Scale: datasets.DefaultScale, Seed: 0})
		src := datasets.SourceVertex(g, 42)
		o.n[name] = g.NumVertices()
		o.source[name] = int(src)
		o.dist[name], _ = singlethread.SSSP(g, src)
		labels, _ := singlethread.WCC(g)
		o.comp[name] = labels
		o.size[name] = map[graph.VertexID]int{}
		for _, l := range labels {
			o.size[name][l]++
		}
		o.tri[name], _, _ = singlethread.TriangleCounts(g)
	}
	return o
}

// answer is the union of the response bodies' fields.
type answer struct {
	Dataset   string `json:"dataset"`
	Workload  string `json:"workload"`
	Machines  int    `json:"machines"`
	Status    string `json:"status"`
	Source    int    `json:"source"`
	Vertex    int    `json:"vertex"`
	Distance  int    `json:"distance"`
	Reachable bool   `json:"reachable"`
	Component int    `json:"component"`
	CompSize  int    `json:"component_size"`
	Incident  int64  `json:"incident_triangles"`
	CommSize  int    `json:"community_size"`
	K         int    `json:"k"`
	Top       []struct {
		Vertex int     `json:"vertex"`
		Rank   float64 `json:"rank"`
	} `json:"top"`
}

// check holds an answered response to the oracle: SSSP distances, WCC
// components and triangle counts must equal the reference exactly;
// every body must echo its query.
func (o *Oracle) check(q Query, resp Response) error {
	var a answer
	if err := json.Unmarshal(resp.Body, &a); err != nil {
		return fmt.Errorf("%s: undecodable body: %v", q.Path(), err)
	}
	if a.Dataset != string(q.Dataset) || a.Workload != q.Kind.String() || a.Machines != q.Machines {
		return fmt.Errorf("%s: body answers %s/%s/%d", q.Path(), a.Dataset, a.Workload, a.Machines)
	}
	if resp.Code != http.StatusOK {
		return nil // a modeled failure: its metadata is the answer
	}
	if a.Status != "OK" {
		return fmt.Errorf("%s: 200 with run status %q", q.Path(), a.Status)
	}
	if q.Vertex >= 0 && a.Vertex != q.Vertex {
		return fmt.Errorf("%s: body answers vertex %d", q.Path(), a.Vertex)
	}
	v := q.Vertex
	switch q.Kind {
	case engine.SSSP:
		want := o.dist[q.Dataset][v]
		if a.Source != o.source[q.Dataset] || a.Distance != int(want) || a.Reachable != (want >= 0) {
			return fmt.Errorf("%s: distance %d from %d, oracle %d from %d", q.Path(), a.Distance, a.Source, want, o.source[q.Dataset])
		}
	case engine.WCC:
		comp := o.comp[q.Dataset][v]
		if a.Component != int(comp) || a.CompSize != o.size[q.Dataset][comp] {
			return fmt.Errorf("%s: component %d of size %d, oracle %d of size %d", q.Path(), a.Component, a.CompSize, comp, o.size[q.Dataset][comp])
		}
	case engine.Triangle:
		if want := o.tri[q.Dataset][v]; a.Incident != want {
			return fmt.Errorf("%s: %d incident triangles, oracle %d", q.Path(), a.Incident, want)
		}
	case engine.LPA:
		if a.CommSize < 1 {
			return fmt.Errorf("%s: empty community", q.Path())
		}
	case engine.PageRank:
		if a.K != 10 || len(a.Top) != 10 {
			return fmt.Errorf("%s: %d of top-%d ranks", q.Path(), len(a.Top), a.K)
		}
		for i := 1; i < len(a.Top); i++ {
			if a.Top[i].Rank > a.Top[i-1].Rank {
				return fmt.Errorf("%s: top ranks out of order", q.Path())
			}
		}
	}
	return nil
}

// randomQuery draws a query for (kind, dataset) with a seeded cluster
// size and target vertex.
func (o *Oracle) randomQuery(rng interface{ Intn(int) int }, kind engine.Kind, name datasets.Name, machines int) Query {
	q := Query{Kind: kind, Dataset: name, Machines: machines, Vertex: -1}
	if kind != engine.PageRank {
		q.Vertex = rng.Intn(o.n[name])
	}
	return q
}

// account classifies one response, counts it, and checks an answered
// one for the expected cache provenance and, given an oracle, against
// the oracle.
func account(o *Oracle, q Query, resp Response, wantCache string, counts *Counts, checks *Checks) bool {
	ok := classify(resp.Code, resp.Body, resp.Err) == Answered
	counts.Add(ok)
	if !ok {
		checks.Failf("%s: status %d: %v %s", q.Path(), resp.Code, resp.Err, bytes.TrimSpace(resp.Body))
		return false
	}
	if resp.Cache != wantCache {
		checks.Failf("%s: cache %q, want %q", q.Path(), resp.Cache, wantCache)
	}
	if o == nil {
		return true
	}
	if err := o.check(q, resp); err != nil {
		checks.Failf("%v", err)
	}
	return true
}

// checkPlan holds a response's X-Graphserve-Plan header to the twin
// runner's decision for the same cell.
func checkPlan(twin *core.Runner, q Query, plan string, checks *Checks) {
	d, err := twin.TryDecide(q.Dataset, q.Kind, q.Machines)
	if err != nil {
		checks.Failf("%s: twin decision: %v", q.Path(), err)
		return
	}
	if plan != d.Summary() {
		checks.Failf("%s: plan %q, twin decided %q", q.Path(), plan, d.Summary())
	}
}

// planSystem extracts the chosen system from a plan summary.
func planSystem(summary string) string {
	f, _, _ := strings.Cut(summary, " ")
	return strings.TrimPrefix(f, "system=")
}

// newTwin builds a runner with the server's scale and seed, warms its
// fixtures, and builds each dataset's planner profile under a span.
// Its decisions are what the server's must equal.
func newTwin(t *Tracer) (*core.Runner, error) {
	twin := core.NewRunner(datasets.DefaultScale, 0)
	for _, name := range serveDatasets {
		if _, err := twin.TryDataset(name); err != nil {
			twin.Close()
			return nil, err
		}
		sp := t.Begin("plan.profile", 0, 0)
		_, err := twin.TryProfile(name)
		sp.End()
		if err != nil {
			twin.Close()
			return nil, err
		}
	}
	return twin, nil
}
