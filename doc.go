// Package graphbench is a from-scratch Go reproduction of "Experimental
// Analysis of Distributed Graph Systems" (Ammar & Özsu, VLDB 2018): the
// eight systems under study reimplemented as engines over a simulated
// shared-nothing cluster, the paper's workloads plus extensions,
// synthetic analogues of the four datasets, and a harness that
// regenerates every table and figure of the paper's evaluation.
//
// See ARCHITECTURE.md for the package map, request data flow, and
// per-layer bit-identity contracts, docs/operations.md for operating
// the query server, ROADMAP.md for the plan, and PAPER.md for the
// source paper's abstract. The benchmarks in bench_test.go regenerate
// each artifact:
//
//	go test -bench=Table9 -benchtime=1x .
//	go test -bench=Figure6 -benchtime=1x .
//
// # Workloads
//
// Six workloads run uniformly across every engine — the paper's
// methodology (§3.3) of "the same algorithm on every system", extended
// beyond the paper's four:
//
//   - PageRank (§3.1): pr(v) = δ + (1−δ)·Σ pr(u)/outdeg(u), tolerance
//     or fixed-iteration stopping.
//   - WCC (§3.2): HashMin label propagation with reverse-edge
//     discovery; labels canonical to the component's minimum id.
//   - SSSP and K-hop (§3.3): BFS hop distances, K-hop truncated at 3.
//   - Triangle counting: the degree-ordered (forward) algorithm —
//     every engine orients edges by (degree, id) rank via
//     graph.ForwardOrient, enumerates forward-neighbor pairs (a
//     quadratic candidate fan-out, the workload's point), and probes
//     closing edges. Outputs are per-vertex incident-triangle counts;
//     their sum is three times the global total.
//   - LPA community detection: synchronous label propagation over the
//     undirected simple view — each round every vertex adopts the most
//     frequent neighbor label, ties broken toward the largest label,
//     for a fixed iteration cap (determinism; synchronous LPA can
//     oscillate). Final labels are canonical to the community's
//     smallest member id.
//
// Every workload is verified against the single-thread oracles in
// internal/singlethread: exactly (bit-identical at every shard count,
// internal/enginetest) for all but PageRank, which compares within
// summation-order tolerance. The oracles themselves carry
// property-based tests (triangle sum/relabeling invariants against a
// naive reference; LPA partition validity and stability).
//
// # Concurrency model
//
// Execution is parallel at two layers, both built on internal/par and
// both deterministic:
//
//   - The persistent worker runtime. A par.Pool launches its helper
//     goroutines once — par.New, owned by core.Runner for the
//     experiment matrix and by each engine run for its shard loops —
//     and every subsequent dispatch reuses them: ForEach writes the
//     job into the pool's reusable slot, wakes each parked helper with
//     one channel token, and the dispatching goroutine itself works
//     tickets alongside them, so a steady-state dispatch allocates
//     nothing (no goroutine spawns, no WaitGroup, no closure boxing —
//     the engines hoist their phase bodies into closures built once
//     per run). Helper count is capped at GOMAXPROCS; Workers() keeps
//     the configured shard granularity, so an 8-shard plan executes
//     bit-identically on any machine, down to a single core where the
//     whole dispatch runs inline on the caller. Pools are closed by
//     their owner at the end of the run (or by a finalizer when
//     abandoned). A panic in a task is re-raised at the dispatch site
//     as a *par.WorkerPanic, and stops the remaining tickets promptly:
//     no task starts after the panic is recorded, so partial side
//     effects are bounded by parallelism, not job size.
//
//   - Runtime sharding. The hot per-vertex loops — bsp.Run's
//     compute/send and merge phases, the GAS gather/apply sweeps, and
//     Blogel's block-mode rounds — split the vertex (or block) range
//     into contiguous shards over a par.Plan. Plans are edge-balanced
//     by default (par.PlanPrefix over graph.WorkPrefix, the
//     prefix-summed degrees): shard boundaries are drawn at weight
//     quantiles, so a power-law hub does not serialize the pass behind
//     one heavy shard. engine.Options.ShardPlan can select uniform
//     vertex-range cuts instead (the adaptive planner does, when
//     degree skew is low); either plan moves only which worker
//     computes which range, never the result. Each shard accumulates privately (message buffers,
//     counters, max-delta), and shard results merge in shard order:
//     messages replay per destination in the exact sequential order,
//     counters are integer-valued sums, aggregators are maxima.
//     Outputs and modeled costs are therefore bit-identical for every
//     shard count (engine.Options.Shards, 0 = GOMAXPROCS,
//     1 = sequential), which internal/enginetest's determinism tests
//     enforce. A BSP superstep pays exactly two dispatch barriers:
//     compute/send, then a fused count+layout+deposit merge whose
//     arena regions are assigned between the two from the send
//     buckets' lengths. Loops whose sequential semantics are Gauss–Seidel
//     (GraphLab's async engine, the frontier propagation sweep)
//     intentionally stay sequential: sharding them would change the
//     modeled execution.
//
//   - The experiment matrix. Every run owns a private sim.Cluster and
//     engine instance, so core.RunGrid and the harness artifact
//     generators execute independent runs concurrently on the
//     runner's persistent pool, sized by core.Runner.Workers — the
//     -parallel flag of cmd/graphbench (0 = GOMAXPROCS).
//     BenchmarkParallelSpeedup in bench_test.go tracks the wall-clock
//     win over the sequential path at both layers.
//
// # Direction-optimizing traversal
//
// Sweep-shaped loops across the codebase share one frontier abstraction
// and one push/pull heuristic (Beamer et al.'s direction-optimizing
// BFS, adapted to the simulator's bit-identity contract):
//
//   - graph.Frontier is a hybrid bitset frontier: a dense bitmap for
//     O(1) membership and deduplication, an insertion-ordered sparse
//     list so Members() replays in exact arrival order, and a running
//     out-edge mass. Dense(unvisited) (frontier edge mass >
//     unvisited/FrontierAlpha) votes for pulling; Sparse(n) (fewer
//     than n/FrontierBeta members) votes for pushing; the gap between
//     the two thresholds is the hysteresis band that stops the mode
//     from thrashing near the crossover.
//
//   - The single-thread primitives use it directly: BFSDistances
//     pushes sparse frontiers over out-edges and pulls dense ones over
//     the unvisited vertices' in-edges (both directions assign
//     identical levels), and HashMinRounds switches the same way with
//     deferred label commits, so its round count matches a push-only
//     BSP engine's exactly.
//
//   - bsp.Run generalizes the trick to the message plane. Programs
//     that expose a pull kernel (PullProgram: PageRank as a damped
//     sum, WCC and SSSP as neighborhood minima) can run any superstep
//     "inverted": instead of computing into send buckets, merging, and
//     delivering, each destination shard folds its vertices' in- (and,
//     for WCC's undirected discovery, out-) neighbors directly. The
//     engine.Options.Direction policy picks per superstep — push (the
//     default plane), pull, or auto, which applies the frontier
//     heuristic to the set of vertices that sent last superstep.
//     Monotone kernels (SSSP's hop-counting wavefront, where a finite
//     value never improves) get the full bottom-up win: the pull sweep
//     skips settled vertices outright, recovering their active counts
//     from the counting pass's distinct-receiver tally, so each
//     vertex's in-edges are scanned roughly once per run instead of
//     once per dense superstep. Switching back from pull with messages
//     still pending materializes the inbox arena from the frontier
//     before the next push superstep.
//
//   - The GAS engines flip the same way: the propagate sweep walks
//     frontier bitsets instead of queue slices, and the PageRank
//     scatter pass inverts into a gather over in-edges once the
//     scatter edge mass crosses the same threshold.
//
// Direction is a host-side execution strategy, not a modeled system
// difference: outputs, message counts, modeled costs, and per-superstep
// stats are bit-identical under push, pull, and auto at every shard
// count — pull supersteps reproduce the push plane's delivered/crossing
// accounting (including combiner semantics, PageRank's float summation
// order, and checkpoint/rollback state) rather than re-deriving it.
// internal/bsp's lollipop switching tests and internal/enginetest's
// direction-policy suite enforce the contract, including under
// injected-failure recovery.
//
// # Memory model
//
// The message plane is flat, reusable memory: no hot loop allocates per
// message, per vertex, or per round in steady state. Arena ownership
// follows the sharding:
//
//   - BSP inboxes are two arena triples (values, per-vertex start
//     offsets, per-vertex lengths). During a superstep the current
//     inbox arena is read-only for every shard; the twin "next" arena
//     is written exclusively by destination-shard owners — the fused
//     merge pass partitions it by vertex range, so shard i writes only
//     its vertices' counters, offsets, and value slots.
//     deliver() swaps the triples at the barrier between supersteps;
//     the swapped-out arena is recycled wholesale by the next merge
//     (every length re-zeroed, every offset rewritten), never freed.
//
//   - Send buckets (parallel dst/srcM/val arrays, one bucket per
//     (source shard, destination shard) pair) are written only by
//     their source shard during compute, read only by their
//     destination shard during merge, and recycled by truncation at
//     the start of the owner's next compute pass. The two phases are
//     separated by pool barriers, so ownership transfer needs no
//     locks.
//
//   - GAS and Blogel-B round state (frontier bitsets, HashMin
//     candidate arrays, block seed lists, proposal and write logs) is
//     private to one worker or one vertex/block range, reused across
//     rounds by truncation or swap, and merged in shard order on the
//     coordinating goroutine after each round's barrier.
//
// Allocation-budget tests (bsp, gas, graph) difference long runs
// against short ones to assert the steady-state cost per round stays a
// constant handful of objects, and BenchmarkMessagePlane plus
// scripts/bench.sh track allocs/op per date in BENCH_<date>.json.
//
// # Snapshots and the dataset cache
//
// Dataset fixtures round-trip through internal/snapshot: a versioned,
// checksummed, little-endian binary container that persists the
// already-built CSR arrays, so loading is O(sections) arena slicing
// plus linear validation instead of O(E) text parsing — the load-phase
// I/O wall the paper's billion-edge datasets put in front of every
// engine. The layout (format version 2):
//
//	┌────────────────────────────────────────────────────────────┐
//	│ header: magic, version, flags, V, E, self-edges, scale,    │
//	│         generation seed                                    │
//	│ section table: {kind, offset, bytes} per section           │
//	├────────────────────────────────────────────────────────────┤
//	│ name │ out-offsets │ out-edges │ in-offsets │ in-edges │   │
//	│ work-prefix sums          (each section 8-byte aligned)    │
//	├────────────────────────────────────────────────────────────┤
//	│ trailer: CRC-32C of everything above + end magic           │
//	└────────────────────────────────────────────────────────────┘
//
// A loader slurps the file into one arena — syscall.Mmap on linux
// (build-tagged; the mapping is released when the graph is collected),
// os.ReadFile elsewhere — and on little-endian hosts aliases each CSR
// array in place; graph.FromCSR then validates every invariant the
// engines rely on (offset monotonicity, id ranges, sorted neighbor
// runs, transpose degrees, self-edge and work-prefix consistency)
// before adopting the arrays without copying. Arbitrary bytes decode
// to an error, never a panic (FuzzSnapshotDecode).
//
// Versioning: snapshot.Version is bumped on any layout or semantics
// change, and readers reject other versions — a snapshot is a cache
// entry, not an archival format; the writer regenerates it. Unknown
// section kinds are ignored, leaving room for additive extensions.
//
// datasets.Cache layers a content-keyed store on top: entries live
// under a cache directory keyed by (dataset name, scale, seed, format
// version), so any parameter or format change misses cleanly, and a
// hit is bit-identical to regeneration because generation is
// deterministic in the key. The container also persists the generation
// seed (format v2), and the cache rejects an entry whose stored seed
// disagrees with the requested one — the CSR bytes alone cannot reveal
// that a renamed or mis-restored file came from a different seed.
// core.Runner consults the cache when SnapshotDir (or
// $GRAPHBENCH_SNAPSHOT_DIR, which CI points at a restored cache) is
// set; cmd/graphbench exposes it as -snapshot-dir and cmd/datagen
// writes standalone containers via -format csrbin. Engines never learn
// how a graph arrived, and the grid-level acceptance test asserts
// generated, cold-cache, and snapshot-loaded runs produce bit-identical
// results and modeled costs.
//
// # Serve mode
//
// cmd/graphserve (internal/serve) turns the study into a long-lived
// query service instead of a batch harness: dataset fixtures are
// prepared once at startup and answered from memory, and workload
// queries — PageRank top-k, WCC membership, SSSP distance, triangle
// counts, LPA communities — are HTTP GET endpoints returning JSON. A
// query that does not pin ?system= is configured by the adaptive
// planner (see Adaptive planning below); the decision summary travels
// in the X-Graphserve-Plan response header, never the body. Three
// pieces carry the load:
//
//   - Admission control. A scheduler owns MaxInFlight run slots, each
//     slot carrying its own persistent par.Pool, so every admitted run
//     dispatches onto warm parked workers (engines borrow the pool via
//     engine.Options.Pool rather than spawning their own). At most
//     MaxQueue requests wait behind busy slots; beyond that the server
//     sheds load with 429 + Retry-After rather than queueing without
//     bound. Every request runs under a deadline (504 on expiry).
//
//   - Single-flight result caching. Runs are deterministic in
//     (dataset, workload, system, machines, shards), so results are
//     memoized under that key and concurrent identical requests
//     coalesce onto one computation. Cache provenance travels only in
//     the X-Graphserve-Cache header (hit | miss | coalesced): bodies
//     are byte-identical between cold and cached serves, which the
//     load-generator test enforces byte-for-byte. Failed runs (OOM,
//     timeout — deterministic findings) are cached like successes;
//     only errors evict so the next request retries.
//
//   - Metrics. GET /metrics reports request counts by status code,
//     latency quantiles from a log-bucketed histogram
//     (metrics.Histogram), cache hit rate, queue depth, in-flight
//     runs, fault/retry/recovery counters, per-(dataset, workload)
//     breaker states, and — once a query has been planned — the
//     adaptive planner's decision log. GET /healthz is the readiness
//     probe.
//
// # Adaptive planning
//
// internal/plan chooses run configurations instead of taking them.
// Given a dataset profile — cheap, deterministic statistics of the
// prepared snapshot: counts, degree skew, a fixed-seed sampled
// diameter, dilation-adjusted traversal depths, an in-core
// working-set estimate — and a request (workload, machine budget),
// Planner.Decide scores every candidate system on a cost model
// calibrated from the full experiment grid: the exact grid cell when
// the request names a class reference dataset at an observed cluster
// size (modeled costs are bit-deterministic, so cells are ground
// truth), fitted a/m + b + c·m curves with work- and iteration-ratio
// scaling elsewhere, and the paper's failure taxonomy (Blogel-B's MPI
// overflow, HaLoop's shuffle failures, timeouts, OOM) as predictors.
// The candidates collapse to one scalar,
//
//	Score = Time + 0.05·MemTotalGB + 0.05·NetGB + 0.01·machines·Time
//
// (flat 24 h penalty for predicted failures), and the argmin wins,
// ties to the lexicographically first system key. Shard count, shard
// plan (edge-balanced weighted vs uniform range cuts), direction
// mode, and memory-governor tier are then set by documented profile
// heuristics. All four knobs are host execution strategy: outputs and
// modeled costs are bit-identical at any setting (enforced by
// internal/enginetest), so a decision is configuration, not
// computation.
//
// Every decision carries its full trace — the profile, every scored
// candidate with its prediction source, the chosen configuration, and
// after the run the realized cost, which core.Runner feeds back via
// Planner.Observe so not-yet-decided cells prefer realized telemetry
// over the model. Decisions are sticky per request cell and
// bit-deterministic per snapshot. Entry points: core.Runner.TryDecide,
// then core.Runner.Exec with the decision in Request.Plan; graphbench
// -run auto (prints the trace); the planner artifact
// (-artifact planner), a twitter+wrn grid on which the planner's total
// composite cost beats every fixed (engine, machines) configuration;
// and serve mode, where unpinned queries are planned per request cell.
// examples/planner walks one decision end to end.
//
// # Fault tolerance & recovery
//
// internal/chaos injects deterministic machine-kill faults into the
// simulated cluster, and each engine recovers the way its real system
// does. A chaos.Plan{Seed, Kind, KillMachine, AtSuperstep} is a pure
// value: its one-shot Injector, attached via sim.Cluster.SetInjector,
// fires a recoverable sim.Failure (status KILL) the first time the run
// crosses the plan's boundary — a superstep for BSP engines, a job
// index for MapReduce chains, an iteration or stage for GraphX — and
// never again, so the whole failure schedule replays from the seed.
// chaos.Source derives per-attempt plans by hashing (seed, request
// key, attempt) for rate-based serve-path chaos.
//
// Recovery is opt-in via engine.Options.Recover and faithful to each
// architecture (§2 of the paper):
//
//   - BSP engines (Giraph, Blogel, Gelly) checkpoint vertex values,
//     halted flags, and the undelivered inbox every
//     Options.CheckpointEvery supersteps (default 5; superstep 0 is
//     free — it is the loaded input). A kill rolls state back to the
//     last checkpoint and replays the lost supersteps; checkpoint
//     writes, the restart, and the replayed work are charged to the
//     modeled clock.
//   - Hadoop and HaLoop re-run the failed job from its materialized
//     HDFS inputs — the MapReduce fault model needs no checkpoints.
//     HaLoop's shuffle bug stays fatal: it is deterministic, and
//     re-running reproduces it.
//   - GraphX recomputes the lost partitions from RDD lineage, replaying
//     the stages since the last periodic RDD checkpoint (or reading the
//     checkpoint back when it is the nearest ancestor).
//
// Because compute state is restored exactly and replayed compute is
// deterministic, a recovered run's outputs, iteration count, and
// status are bit-identical to the failure-free run; only the modeled
// clock grows, and Result.Costs itemizes the overhead (checkpoint,
// restart, replay seconds, failure count). The fault matrix in
// internal/enginetest enforces this for every engine × workload at
// every boundary.
//
// The serve path layers process-level resilience on top: runs killed
// by an injected fault are retried with exponential backoff + jitter
// (Config.MaxRetries), persistent compute errors open a per-(dataset,
// workload) circuit breaker that sheds with 503 + Retry-After until a
// half-open probe succeeds, a panic-recovery middleware turns handler
// panics into 500s, and SIGTERM/SIGINT drain the listener gracefully.
// Deterministic modeled findings (an OOM result) are cached successes,
// not breaker failures. cmd/graphserve exposes the knobs: -retries,
// -breaker-threshold, -breaker-cooldown, -chaos-rate, -chaos-seed,
// -recover.
//
// # Out-of-core execution & the memory governor
//
// internal/govern bounds the host-side working set of a run — the real
// bytes this process allocates, a separate ledger from the *modeled*
// cluster memory above. One Governor (core.Runner.MemoryBudget,
// $GRAPHBENCH_MEM_BUDGET, -mem-budget on cmd/graphbench and
// cmd/graphserve) is shared by all runs of a Runner; each run charges
// its large allocations — snapshot arenas, BSP inbox arenas, send
// buckets, combiner planes, streaming windows — against a per-run
// Lease and reacts to pressure in tiers:
//
//   - Soft (projected residency past half the headroom): the run sheds
//     optional scratch — traversal workloads force the push-direction
//     plane instead of keeping pull mirrors, and dataset fixtures load
//     demand-paged (snapshot.LoadLazy) instead of prefaulted.
//   - Hard (lean residency does not fit): the BSP runtime switches to
//     out-of-core supersteps. Edge blocks are re-laid into run-local
//     segment files and streamed through fixed windows (so derived
//     graphs — e.g. triangle counting's forward orientation — stream
//     too); send buckets flush to raw spill chunks past a threshold;
//     inbox arenas live in segment files, double-buffered like their
//     in-core twins. Replay order is preserved — spilled chunks in
//     flush order, then the in-memory remainder, per source shard — so
//     outputs, IterStats, and modeled costs stay bit-identical to
//     in-core execution at every shard count. Checkpoints copy the live
//     inbox segments; rollback restores them byte-for-byte, so chaos
//     kills mid-spill recover exactly (enforced by the spill fault
//     matrix in internal/enginetest).
//   - Reject (even the out-of-core floor does not fit): the run fails
//     with an error unwrapping to govern.ErrBudget and modeled status
//     OOM. The serve path maps it to 503 + Retry-After, never caches
//     it, and excludes it from breaker accounting — the request was
//     fine, the moment was not.
//
// Spill files are checksummed paged segments (govern.PageBytes pages,
// CRC-32C per page, a trailer with payload length and magic): a torn
// or bit-flipped segment refuses to open or read rather than feeding
// corrupt messages back into a superstep. Send-bucket chunks use raw
// triplet files ([dst][srcM][val] columns) with their CRCs held in
// memory, since they never outlive one superstep. All spill lives
// under a per-run directory that Lease.Close removes unconditionally —
// a crashed run cannot leak budget or temp files.
//
// Result.Govern reports the run's ledger slice (tracked peak, spill
// volume, pressure events); /metrics adds the governor's process-wide
// gauges. The acceptance test (internal/enginetest) pins bit-identity
// between spilled and in-core runs; BenchmarkSpill tracks the
// throughput cost of spilling against the same run unbounded.
package graphbench
