package main

import (
	"path/filepath"
	"testing"
	"time"
)

func span(id, parent, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []Span
		want  map[int64]time.Duration
	}{
		{"leaf", []Span{span(1, 0, 0, 100)}, map[int64]time.Duration{1: 100}},
		{"disjoint children", []Span{
			span(1, 0, 0, 100), span(2, 1, 10, 20), span(3, 1, 50, 80),
		}, map[int64]time.Duration{1: 60, 2: 10, 3: 30}},
		{"overlapping children count once", []Span{
			span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 90),
		}, map[int64]time.Duration{1: 20, 2: 50, 3: 50}},
		{"contained child inside another", []Span{
			span(1, 0, 0, 100), span(2, 1, 10, 90), span(3, 1, 20, 30),
		}, map[int64]time.Duration{1: 20, 2: 80, 3: 10}},
		{"only direct children subtract", []Span{
			span(1, 0, 0, 100), span(2, 1, 20, 80), span(3, 2, 30, 70),
		}, map[int64]time.Duration{1: 40, 2: 20, 3: 40}},
		{"children clipped to the parent", []Span{
			span(1, 0, 10, 50), span(2, 1, 0, 20), span(3, 1, 45, 70),
		}, map[int64]time.Duration{1: 25, 2: 20, 3: 25}},
		{"touching children", []Span{
			span(1, 0, 0, 100), span(2, 1, 0, 50), span(3, 1, 50, 100),
		}, map[int64]time.Duration{1: 0, 2: 50, 3: 50}},
	} {
		got := SelfTimes(tc.spans)
		for id, want := range tc.want {
			if got[id] != want {
				t.Errorf("%s: self(%d) = %v, want %v", tc.name, id, got[id], want)
			}
		}
	}
}

func TestSelfByName(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "b", Start: 0, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 50, End: 60},
	}
	got := SelfByName(spans)
	if got["a"] != 60 || got["b"] != 40 {
		t.Errorf("SelfByName = %v", got)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.Begin("x", 0, nilTracer.NewOp()).End() // must not panic
	if nilTracer.Spans() != nil {
		t.Error("nil tracer recorded spans")
	}

	tr := NewTracer()
	op := tr.NewOp()
	root := tr.Begin("root", 0, op)
	child := tr.Begin("child", root.ID(), op)
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Parent != root.ID() || spans[0].Op != op || spans[1].Op != op {
		t.Fatalf("spans = %+v", spans)
	}
	if err := tr.WriteFile(filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
		t.Fatal(err)
	}
}
