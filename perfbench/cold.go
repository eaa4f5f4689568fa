package main

import (
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/par"
)

// served is one completed request of a timed phase, as the checks
// and the replay need it.
type served struct {
	q       Query
	plan    string        // X-Graphserve-Plan
	latency time.Duration // client-observed
	at      time.Time     // when it was sent
}

// closedLoop runs one timed segment of at most d with serveClients
// clients, until the segment ends or next yields no query. Each client
// sends its next request only after reading the previous response,
// and hands the response to check. With keep, it returns every
// completed request in the order sent.
func closedLoop(ph *Phase, d time.Duration, t *Tracer, next func() (Query, bool), get func(string) Response, check func(Query, Response), keep bool) []served {
	var mu sync.Mutex
	var got []served
	var lat, done []time.Duration
	var wg sync.WaitGroup
	ph.begin()
	start := ph.start
	deadline := start.Add(d)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []served
			var myLat, myDone []time.Duration
			for time.Now().Before(deadline) {
				q, ok := next()
				if !ok {
					break
				}
				sp := t.Begin("serve.request."+q.Kind.String(), 0, t.NewOp())
				at := time.Now()
				resp := get(q.Path())
				sp.End()
				check(q, resp)
				myLat = append(myLat, resp.Latency)
				myDone = append(myDone, at.Add(resp.Latency).Sub(start))
				if keep {
					mine = append(mine, served{q, resp.Plan, resp.Latency, at})
				}
			}
			mu.Lock()
			got = append(got, mine...)
			lat = append(lat, myLat...)
			done = append(done, myDone...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	seg := ph.end()
	sort.Slice(got, func(i, j int) bool { return got[i].at.Before(got[j].at) })
	for _, l := range lat {
		ph.Latencies = append(ph.Latencies, ms(l))
	}
	// Rate windows are runs of consecutive completions, about one per
	// second of the segment.
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	if per := len(done) / int(seg/time.Second+1); per > 0 {
		var prev time.Duration
		for i := per - 1; i < len(done); i += per {
			if done[i] > prev {
				ph.Rates = append(ph.Rates, float64(per)/(done[i]-prev).Seconds())
			}
			prev = done[i]
		}
	}
	ph.Ops += len(done)
	return got
}

// coldQueries is every distinct cache key of the serve-cold workload —
// endpoint × dataset × cluster size in [minMachines, maxMachines] — in
// a seeded order, each with a seeded target vertex.
func coldQueries(o *Oracle, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	var qs []Query
	for _, kind := range engineKinds {
		for _, name := range serveDatasets {
			for m := minMachines; m <= maxMachines; m++ {
				qs = append(qs, o.randomQuery(rng, kind, name, m))
			}
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// coldReplays bounds how many traced requests the twin runner replays.
const coldReplays = 400

// coldFleet serves every distinct key once from one server, then swaps
// in a freshly booted server, off the clock, with a new seeded order of
// the same keys: every timed request is a cache miss however long the
// phase runs.
type coldFleet struct {
	s       *Server
	o       *Oracle
	seed    int64
	queries []Query
	cursor  atomic.Int64
	warm    *Counts
	check   func(Query, Response)
}

func (f *coldFleet) next() (Query, bool) {
	i := int(f.cursor.Add(1) - 1)
	if i >= len(f.queries) {
		return Query{}, false
	}
	return f.queries[i], true
}

// serve runs closed-loop segments until d of serving time has passed.
func (f *coldFleet) serve(ph *Phase, d time.Duration, t *Tracer) ([]served, error) {
	var all []served
	for ph.Elapsed < d {
		all = append(all, closedLoop(ph, d-ph.Elapsed, t, f.next, f.s.Get, f.check, true)...)
		if ph.Elapsed >= d {
			break
		}
		f.s.Close()
		runtime.GC()
		s, err := bootServer(f.warm)
		if err != nil {
			return nil, err
		}
		f.s = s
		f.seed += 1 << 32
		f.queries = coldQueries(f.o, f.seed)
		f.cursor.Store(0)
	}
	return all, nil
}

func runServeCold(cfg Config) (*Outcome, error) {
	out := newOutcome()
	s, setups, err := setUp(func() (*Server, error) { return bootServer(out.Counts["warmup"]) }, (*Server).Close)
	if err != nil {
		return nil, err
	}
	o := newOracle()
	var misses atomic.Int64
	f := &coldFleet{s: s, o: o, seed: cfg.Seed, queries: coldQueries(o, cfg.Seed), warm: out.Counts["warmup"],
		check: func(q Query, resp Response) {
			if account(o, q, resp, "miss", out.Counts["timed"], out.Checks) && resp.Cache == "miss" {
				misses.Add(1)
			}
		}}
	defer func() { f.s.Close() }()

	untraced := &Phase{}
	all, err := f.serve(untraced, cfg.phase(), nil)
	if err != nil {
		return nil, err
	}
	if out.EndToEnd, err = endToEndReport(setups, untraced); err != nil {
		return nil, err
	}
	var traced []served
	var t *Tracer
	tracedPh := &Phase{}
	if cfg.Trace {
		t = NewTracer()
		if traced, err = f.serve(tracedPh, cfg.phase(), t); err != nil {
			return nil, err
		}
		all = append(all, traced...)
	}

	out.PerLayer["serve.miss_ratio"] = float64(misses.Load()) / float64(len(all))
	twin, err := newTwin(t)
	if err != nil {
		return nil, err
	}
	defer twin.Close()
	if cfg.Trace {
		// Replay the first traced requests of distinct cells, in the
		// order they were sent, on the twin runner: the first decision
		// per cell and the planned run, each under a span.
		pool := par.New(slotShards())
		defer pool.Close()
		var results []*engine.Result
		var ops []int64
		var replayed []served
		seen := map[Query]bool{}
		for _, sv := range traced {
			cell := Query{Kind: sv.q.Kind, Dataset: sv.q.Dataset, Machines: sv.q.Machines}
			if seen[cell] || len(replayed) == coldReplays {
				continue
			}
			seen[cell] = true
			replayed = append(replayed, sv)
			op := t.NewOp()
			ops = append(ops, op)
			root := t.Begin("core.replay", 0, op)
			sp := t.Begin("plan.decide", root.ID(), op)
			d, err := twin.TryDecide(sv.q.Dataset, sv.q.Kind, sv.q.Machines)
			sp.End()
			if err != nil {
				return nil, err
			}
			sp = t.Begin(enginePackage(d.System)+".run", root.ID(), op)
			res, err := twin.TryRunPlanned(pool, core.FaultOpts{}, d, sv.q.Dataset, sv.q.Kind)
			sp.End()
			root.End()
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
		coldLayers(out.PerLayer, t.Spans(), replayed, ops, results)
	}
	for _, sv := range all {
		checkPlan(twin, sv.q, sv.plan, out.Checks)
		out.PerLayer["plan.share."+planSystem(sv.plan)] += 1 / float64(len(all))
	}
	if !cfg.Trace {
		return out, nil
	}
	if err := traceFixtures(t, out.PerLayer, twin, serveDatasets, datasets.Options{Scale: datasets.DefaultScale}, out.Checks); err != nil {
		return nil, err
	}
	out.PerLayer["plan.profile_ms"] = ms(SelfByName(t.Spans())["plan.profile"])
	commonLayers(out.PerLayer, untraced, tracedPh, len(t.Spans()))
	return out, writeSpans(t, cfg)
}

// coldLayers derives serve-cold's per-layer metrics from the traced
// requests and the replay of some of them (one op each): per-endpoint
// request medians, the replayed decide and run times, the serve path's
// own share of each request, and engine busy time and counts per
// request.
func coldLayers(r Report, spans []Span, replayed []served, ops []int64, results []*engine.Result) {
	self := SelfTimes(spans)
	perEndpoint := map[string][]float64{}
	decide := map[int64]time.Duration{}
	run := map[int64]time.Duration{}
	var decideUs, runMs []float64
	for _, s := range spans {
		if pkg, ok := strings.CutSuffix(s.Name, ".run"); ok {
			run[s.Op] = s.Dur()
			runMs = append(runMs, ms(s.Dur()))
			r[pkg+".busy_ms"] += ms(self[s.ID])
		} else if ep, ok := strings.CutPrefix(s.Name, "serve.request."); ok {
			perEndpoint[ep] = append(perEndpoint[ep], ms(s.Dur()))
		} else if s.Name == "plan.decide" {
			decide[s.Op] = s.Dur()
			decideUs = append(decideUs, us(s.Dur()))
		}
	}
	for ep, xs := range perEndpoint {
		r["serve.request_p50_ms."+ep] = median(xs)
	}
	var selfMs []float64
	for i, sv := range replayed {
		op := ops[i]
		selfMs = append(selfMs, ms(sv.latency-decide[op]-run[op]))
	}
	r["serve.self_ms"] = median(selfMs)
	r["plan.decide_us"] = median(decideUs)
	r["core.run_ms"] = median(runMs)
	r["core.run_p50_ms"] = median(runMs)
	if p99, ok := percentile(runMs, 0.99); ok {
		r["core.run_p99_ms"] = p99
	}
	resultCounts(r, results)
	perPass(r, float64(len(replayed)))
}
