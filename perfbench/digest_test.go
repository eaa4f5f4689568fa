package main

import (
	"testing"

	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
)

// The grid's golden digest must not depend on how the runs are spread
// over workers and shards: both only change wall time.
func TestGridDigestAcrossWorkersAndShards(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full grid twice")
	}
	for _, tc := range []struct{ workers, shards int }{{1, 1}, {2, 3}} {
		r := core.NewRunner(datasets.DefaultScale, gridSeed)
		r.Workers, r.Shards = tc.workers, tc.shards
		checks := &Checks{}
		checkGrid(r.RunGrid(gridCells()), checks)
		r.Close()
		for _, f := range checks.Failed() {
			t.Errorf("workers %d shards %d: %s", tc.workers, tc.shards, f)
		}
	}
}

func TestDigestIgnoresHostOnlyGovernorFields(t *testing.T) {
	r := core.NewRunner(datasets.ScaleUpScale, spillSeed)
	defer r.Close()
	sys, err := core.SystemByKey("giraph")
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.TryRun(sys, spillDataset, engine.PageRank, 16)
	if err != nil {
		t.Fatal(err)
	}
	a := digest([]*engine.Result{res})
	res.Govern.PeakBytes, res.Govern.SpillBytes, res.Govern.Spilled = 1, 2, true
	if b := digest([]*engine.Result{res}); a != b {
		t.Error("digest changed with the governor's host-only fields")
	}
	res.NetBytes++
	if c := digest([]*engine.Result{res}); a == c {
		t.Error("digest ignored a modeled field")
	}
}
