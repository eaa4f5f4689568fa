// Package plan is the adaptive engine/configuration planner: given a
// dataset profile and a request (workload, machine budget), it selects
// the distributed graph system and run configuration with the lowest
// predicted composite resource cost, and records a full decision trace
// so every choice is auditable.
//
// The paper's central output (Tables 6–10) is a static answer to
// "which system wins where". This package operationalizes it: the
// tables' modeled costs — the run log of the main experiment grid,
// embedded as grid.jsonl and condensed on first use into
// per-(system, workload, graph-class) cost curves and exact grid
// cells — become a cost model a planner can query at request time.
//
// # Decision inputs
//
// A Profile is the planner's snapshot of a prepared dataset: vertex
// and edge counts, degree skew, density, a sampled effective-diameter
// estimate, paper-scale traversal depths (SSSP eccentricity and
// hash-min WCC rounds, both dilation-adjusted), and an in-core
// working-set estimate. All fields are deterministic functions of the
// graph snapshot (the diameter sample seed is fixed), which makes
// decisions bit-deterministic per snapshot.
//
// # Cost model
//
// Each candidate system is forecast on four axes — wall time, CPU
// time, memory footprint, network traffic — either from the exact
// calibrated grid cell (when the request names a class reference
// dataset at an observed cluster size; modeled costs are
// bit-deterministic, so grid cells are ground truth, not samples) or
// by extrapolating the fitted a/m + b + c·m curves with work- and
// iteration-ratio scaling. Failure predictors encode the paper's
// failure taxonomy: Blogel-B's MPI int32 overflow past 2^29 vertices,
// HaLoop's shuffle failures on wide clusters with long loops,
// timeouts at the 24 h cap, and OOM above 92% of per-machine memory.
//
// The axes collapse into one scalar (see Score):
//
//	Score = Time + 0.05·MemTotalGB + 0.05·NetGB + 0.01·machines·Time
//
// with predicted failures scoring a flat 24 h penalty. The planner
// picks the argmin over candidates; ties break to the
// lexicographically first system key, so the choice is deterministic.
//
// Shard count, shard plan (weighted vs uniform), direction mode, and
// memory tier are then set by documented profile heuristics (see
// Decide) — these knobs never change modeled cost, only host wall
// time, so they ride along with the engine choice rather than being
// scored.
//
// # Telemetry feedback
//
// After a planned run executes, Planner.Observe feeds the realized
// metrics.Resource back into the model: later first-time decisions
// that consider that exact (dataset, workload, system, machines)
// configuration use the realized values in place of the prediction.
// Decisions themselves are sticky — the first Decide for a request
// cell is pinned for the planner's lifetime and repeats return it
// unchanged — so downstream result caches keyed on the decision stay
// stable while telemetry accumulates.
//
// # Trace format
//
// Every Decision carries its audit trail: the request, the profile,
// every candidate with status/score/source ("calibrated", "curve", or
// "observed"), the chosen configuration, and — after Observe — the
// realized cost beside the predicted one. Decision.Summary is the
// one-line form (the X-Graphserve-Plan response header);
// Decision.Trace is the multi-line block the graphbench planner
// artifact prints; the struct itself marshals to JSON for /metrics.
//
// # Regenerating the calibration
//
// The calibration has one source, grid.jsonl, which is the unchanged
// output of
//
//	GRAPHBENCH_MEM_BUDGET= go run ./cmd/graphbench -grid -log internal/plan/grid.jsonl
//
// at the default scale and seed (run from the repository root; the
// empty budget keeps memory-governor fields out of the log). The
// first Decide parses it and fits value(m) = a/m + b + c·m per
// (system, workload, class, axis) over the OK cells by least squares
// with a, c ≥ 0; the records themselves are the exact cells. Any
// change to a modeled cost makes core's TestCalibrationGridFresh fail
// until the log is regenerated with that command.
package plan
