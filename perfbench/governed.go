package main

import (
	"math"
	"math/rand"
	"time"

	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
)

// The governed sample runs the out-of-core tier. It is part of grid's
// traced run, not a workload of its own: its wall time follows the
// disk (the tier rewrites segment files every superstep), and on a
// 2-vCPU virtual machine with an ext4 disk that spread its end-to-end
// numbers past any bound the benchmark may set (README.md, Noise).
const (
	// spillBudget is the bounded-memory setting of the scale-up CI leg:
	// small enough that every sample cell goes out of core.
	spillBudget   = 9 << 20
	spillMachines = 64
	spillDataset  = datasets.UK
	// spillSeed is the fixture seed of that CI leg (graphbench's
	// default); the benchmark seed orders the runs.
	spillSeed = 1
	// spillShards runs each engine single-threaded, as that CI leg does.
	spillShards = 1
)

var (
	spillSystems = []string{"giraph", "blogel-v", "gelly"}
	spillKinds   = []engine.Kind{engine.PageRank, engine.WCC, engine.SSSP}
)

// spillCell is one governed run of the sample.
type spillCell struct {
	sys  core.System
	kind engine.Kind
}

func (c spillCell) String() string { return c.sys.Key + "/" + c.kind.String() }

// spillRunner returns a runner over the scale-up fixture with the given
// memory budget (0 = ungoverned), its fixture built.
func spillRunner(budget int64) (*core.Runner, error) {
	r := core.NewRunner(datasets.ScaleUpScale, spillSeed)
	r.MemoryBudget = budget
	r.Shards = spillShards
	if _, err := r.TryDataset(spillDataset); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// governedSample runs {giraph, blogel-v, gelly} × {pagerank, wcc,
// sssp} on the scale-up uk200705 fixture under the 9 MiB budget, one
// at a time, in whole rounds of nine in seeded order, for at least d;
// then an ungoverned twin runs the same cells as often. Every governed
// run must match the twin's outputs and modeled record bit for bit,
// run out of core, and stay within the budget. It reports the governor
// and out-of-core metrics.
func governedSample(cfg Config, d time.Duration, t *Tracer, out *Outcome) error {
	var cells []spillCell
	for _, key := range spillSystems {
		sys, err := core.SystemByKey(key)
		if err != nil {
			return err
		}
		for _, kind := range spillKinds {
			cells = append(cells, spillCell{sys, kind})
		}
	}
	rand.New(rand.NewSource(cfg.Seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	incore, err := spillRunner(0)
	if err != nil {
		return err
	}
	defer incore.Close()
	want := make([]string, len(cells))
	for i, c := range cells {
		res, err := incore.TryRun(c.sys, spillDataset, c.kind, spillMachines)
		if err != nil {
			return err
		}
		want[i] = fingerprint(res)
	}
	r, err := spillRunner(spillBudget)
	if err != nil {
		return err
	}
	defer r.Close()

	// round runs the cells once under spans named name and returns the
	// governed results, checked against the twin off the clock.
	round := func(run *core.Runner, name string, counts *Counts) []*engine.Result {
		results := make([]*engine.Result, len(cells))
		errs := make([]error, len(cells))
		for i, c := range cells {
			sp := t.Begin(name, 0, t.NewOp())
			results[i], errs[i] = run.TryRun(c.sys, spillDataset, c.kind, spillMachines)
			sp.End()
		}
		for i, res := range results {
			c, err := cells[i], errs[i]
			ok := err == nil && res.Err == nil
			counts.Add(ok)
			switch {
			case err != nil:
				out.Checks.Failf("spill %s: %v", c, err)
			case res.Err != nil:
				out.Checks.Failf("spill %s: %v", c, res.Err)
			case fingerprint(res) != want[i]:
				out.Checks.Failf("spill %s: outputs differ from the in-core run", c)
			case run == r && !res.Govern.Spilled:
				out.Checks.Failf("spill %s: did not go out of core", c)
			case res.Govern.PeakBytes > spillBudget:
				out.Checks.Failf("spill %s: peak %d B over the %d B budget", c, res.Govern.PeakBytes, spillBudget)
			}
		}
		return results
	}
	round(r, "warmup.run_governed", out.Counts["warmup"])
	var governed [][]*engine.Result
	for start := time.Now(); len(governed) == 0 || time.Since(start) < d; {
		governed = append(governed, round(r, "core.run_governed", out.Counts["timed"]))
	}
	for range governed {
		round(incore, "core.run_incore", out.Counts["timed"])
	}

	rep := out.PerLayer
	var governedMs, incoreMs []float64
	for _, sp := range t.Spans() {
		switch sp.Name {
		case "core.run_governed":
			governedMs = append(governedMs, ms(sp.Dur()))
		case "core.run_incore":
			incoreMs = append(incoreMs, ms(sp.Dur()))
		}
	}
	rep["core.run_governed_ms"] = mean(governedMs)
	rep["core.run_incore_ms"] = mean(incoreMs)
	rep["govern.overhead_ratio"] = mean(governedMs) / mean(incoreMs)
	for _, results := range governed {
		for _, res := range results {
			rep["govern.spill_bytes"] += float64(res.Govern.SpillBytes)
			rep["govern.hard_events"] += float64(res.Govern.HardEvents)
			rep["govern.peak_bytes"] = math.Max(rep["govern.peak_bytes"], float64(res.Govern.PeakBytes))
		}
	}
	for _, res := range governed[0] {
		if res.Govern.Spilled {
			rep["govern.spilled_runs"]++
		}
	}
	n := float64(len(governed))
	rep["govern.spill_bytes"] /= n
	rep["govern.hard_events"] /= n
	return nil
}
