package main

import (
	"fmt"
	"runtime"
	"time"

	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/hdfs"
)

// setupRepeats is how many times each run sets up its system; setup_s
// is the median.
const setupRepeats = 5

// setUp runs build setupRepeats times, closing every system but the
// last, and returns the last system with every set-up time.
func setUp[T any](build func() (T, error), closeFn func(T)) (T, []time.Duration, error) {
	var sys T
	times := make([]time.Duration, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			closeFn(sys)
			runtime.GC() // the next set-up starts from a clean heap
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return sys, nil, err
		}
		times = append(times, time.Since(t0))
		sys = s
	}
	return sys, times, nil
}

// traceFixtures rebuilds the named fixtures the way
// core.Runner.TryDataset does — generate, pick the source, prepare the
// three HDFS formats, compute the dilation factors — one public call at
// a time under spans, and checks each against the fixture the runner
// under test built. It reports the set-up layer times and the input
// size.
func traceFixtures(t *Tracer, r Report, runner *core.Runner, names []datasets.Name, opt datasets.Options, checks *Checks) error {
	for _, name := range names {
		op := t.NewOp()
		root := t.Begin("core.fixture", 0, op)
		sp := t.Begin("datasets.Generate", root.ID(), op)
		g := datasets.Generate(name, opt)
		sp.End()
		sp = t.Begin("datasets.SourceVertex", root.ID(), op)
		src := datasets.SourceVertex(g, 42)
		sp.End()
		sp = t.Begin("engine.Prepare", root.ID(), op)
		d, err := engine.Prepare(hdfs.New(), g, "data/"+string(name), 64, src)
		sp.End()
		if err != nil {
			return fmt.Errorf("preparing %s: %w", name, err)
		}
		sp = t.Begin("graph.dilation", root.ID(), op)
		d.DilationSSSP = datasets.TraversalDilation(name, g, src)
		d.DilationWCC = datasets.WCCDilation(name, g)
		sp.End()
		root.End()

		want, err := runner.TryDataset(name)
		if err != nil {
			return err
		}
		if d.NumVertices != want.NumVertices || d.Source != want.Source ||
			d.DilationSSSP != want.DilationSSSP || d.DilationWCC != want.DilationWCC {
			checks.Failf("traced %s fixture differs from the runner's", name)
		}
		r["datasets.vertices"] += float64(g.NumVertices())
		r["datasets.edges"] += float64(g.NumEdges())
	}
	self := SelfByName(t.Spans())
	r["datasets.generate_ms"] = ms(self["datasets.Generate"])
	r["engine.prepare_ms"] = ms(self["engine.Prepare"])
	r["graph.dilation_ms"] = ms(self["graph.dilation"])
	return nil
}
