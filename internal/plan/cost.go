package plan

import (
	"graphbench/internal/metrics"
	"graphbench/internal/sim"
)

// Composite resource-cost weights. The planner optimizes a scalar
// blend of the resource-efficiency study's axes — wall time, total
// memory footprint, network traffic, and machine-seconds — rather than
// wall time alone, so a system that is marginally faster but hogs the
// cluster loses to a lean one:
//
//	Score = Time + WeightMemory·MemTotalGB + WeightNetwork·NetGB
//	      + WeightMachines·machines·Time
//
// Failed runs (any predicted status other than OK) score the flat
// FailurePenalty — the paper's 24-hour cap, which is what a failure
// costs an operator who had to wait for it.
const (
	// WeightMemory is seconds charged per GB of summed per-machine
	// peak memory.
	WeightMemory = 0.05
	// WeightNetwork is seconds charged per GB of network traffic.
	WeightNetwork = 0.05
	// WeightMachines is seconds charged per machine-second occupied
	// (the cluster-occupancy term).
	WeightMachines = 0.01
	// FailurePenalty is the score of a predicted failure: the paper's
	// execution cap in seconds.
	FailurePenalty = sim.TimeoutSeconds
)

const bytesPerGB = float64(1 << 30)

// Score collapses a prediction into the planner's scalar objective at
// a given cluster size. Lower is better.
func Score(p Prediction, machines int) float64 {
	if p.Status != "OK" {
		return FailurePenalty
	}
	return p.TimeSec +
		WeightMemory*(float64(p.MemTotal)/bytesPerGB) +
		WeightNetwork*(float64(p.NetBytes)/bytesPerGB) +
		WeightMachines*float64(machines)*p.TimeSec
}

// ResourceScore scores realized run telemetry on the same scale as
// Score, so predicted and realized costs are directly comparable.
func ResourceScore(r metrics.Resource) float64 {
	return Score(fromResource(r, 0, "observed"), r.Machines)
}
