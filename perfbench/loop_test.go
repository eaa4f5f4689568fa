package main

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphbench/internal/datasets"
	"graphbench/internal/engine"
)

// closedLoop's clients share the tracer, the counters and the check
// from several goroutines; run under -race.
func TestClosedLoopAccounting(t *testing.T) {
	var sent atomic.Int64
	next := func() (Query, bool) {
		if sent.Add(1) > 400 {
			return Query{}, false
		}
		return Query{Kind: engine.WCC, Dataset: datasets.Twitter, Machines: 16, Vertex: 1}, true
	}
	get := func(string) Response {
		time.Sleep(100 * time.Microsecond)
		return Response{Code: 200, Latency: 100 * time.Microsecond, Plan: "system=giraph"}
	}
	var mu sync.Mutex
	checked := 0
	check := func(Query, Response) {
		mu.Lock()
		checked++
		mu.Unlock()
	}
	tr := NewTracer()
	ph := &Phase{}
	got := closedLoop(ph, time.Minute, tr, next, get, check, true)
	if ph.Ops != 400 || len(got) != 400 || checked != 400 || len(ph.Latencies) != 400 || len(tr.Spans()) != 400 {
		t.Fatalf("ops %d, kept %d, checked %d, latencies %d, spans %d; want 400 each",
			ph.Ops, len(got), checked, len(ph.Latencies), len(tr.Spans()))
	}
	for i := 1; i < len(got); i++ {
		if got[i].at.Before(got[i-1].at) {
			t.Fatal("requests not in the order sent")
		}
	}
	if ph.Elapsed <= 0 || ph.opsPerSec() <= 0 {
		t.Errorf("elapsed %v, rate %v", ph.Elapsed, ph.opsPerSec())
	}

	// Without keep, nothing per request is retained.
	sent.Store(0)
	if got := closedLoop(&Phase{}, time.Minute, nil, next, get, check, false); got != nil {
		t.Errorf("kept %d requests", len(got))
	}
}

func TestPhaseRate(t *testing.T) {
	ph := &Phase{Elapsed: 4 * time.Second, Ops: 100}
	if got := ph.opsPerSec(); got != 25 {
		t.Errorf("rate without windows = %v, want 25", got)
	}
	ph.window(time.Second, 10)
	ph.window(time.Second, 30)
	ph.window(2*time.Second, 40)
	// Window rates 10, 30, 20: the median ignores the outliers.
	if got := ph.opsPerSec(); got != 20 {
		t.Errorf("median window rate = %v, want 20", got)
	}
}
