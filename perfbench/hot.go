package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"

	"graphbench/internal/datasets"
)

const (
	// hotPerStratum keys per endpoint × dataset make up the hot set, so
	// the endpoint and dataset mix is the same for every seed.
	hotPerStratum = 4
	// replayRounds is how many times the traced run replays the hot
	// set in process (handler) and on the twin planner (decide).
	replayRounds = 50
)

// hotKey is one member of the hot set with its warm-up (miss) body
// and plan header.
type hotKey struct {
	q    Query
	body []byte
	plan string
}

// warmHotSet draws the hot set: per endpoint × dataset, cluster sizes
// in a seeded order until hotPerStratum of them answered 200 on a
// cache miss, then a second request to each, which must hit and return
// the miss body byte for byte.
func warmHotSet(s *Server, o *Oracle, seed int64, out *Outcome) ([]hotKey, error) {
	rng := rand.New(rand.NewSource(seed))
	warm := out.Counts["warmup"]
	var keys []hotKey
	for _, kind := range engineKinds {
		for _, name := range serveDatasets {
			got := 0
			for _, i := range rng.Perm(maxMachines - minMachines + 1) {
				if got == hotPerStratum {
					break
				}
				q := o.randomQuery(rng, kind, name, minMachines+i)
				resp := s.Get(q.Path())
				if !account(o, q, resp, "miss", warm, out.Checks) || resp.Code != http.StatusOK {
					continue
				}
				keys = append(keys, hotKey{q, resp.Body, resp.Plan})
				got++
			}
			if got < hotPerStratum {
				return nil, fmt.Errorf("hot set: only %d %s/%s keys answered 200", got, kind, name)
			}
		}
	}
	for _, k := range keys {
		resp := s.Get(k.q.Path())
		if account(o, k.q, resp, "hit", warm, out.Checks) && !bytes.Equal(resp.Body, k.body) {
			out.Checks.Failf("%s: hit body differs from the miss body", k.q.Path())
		}
	}
	return keys, nil
}

func runServeHot(cfg Config) (*Outcome, error) {
	out := newOutcome()
	s, setups, err := setUp(func() (*Server, error) { return bootServer(out.Counts["warmup"]) }, (*Server).Close)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	o := newOracle()
	keys, err := warmHotSet(s, o, cfg.Seed, out)
	if err != nil {
		return nil, err
	}
	byQuery := map[Query]hotKey{}
	for _, k := range keys {
		byQuery[k.q] = k
	}
	// The clients walk one seeded permutation of the hot set in turn.
	order := rand.New(rand.NewSource(cfg.Seed + 1)).Perm(len(keys))
	var cursor atomic.Int64
	next := func() (Query, bool) {
		i := int(cursor.Add(1) - 1)
		return keys[order[i%len(keys)]].q, true
	}
	// A hit must repeat its key's miss byte for byte, so the oracle
	// check of the miss covers it.
	var hits atomic.Int64
	check := func(q Query, resp Response) {
		if !account(nil, q, resp, "hit", out.Counts["timed"], out.Checks) || resp.Cache != "hit" {
			return
		}
		hits.Add(1)
		if k := byQuery[q]; !bytes.Equal(resp.Body, k.body) || resp.Plan != k.plan {
			out.Checks.Failf("%s: hit differs from the miss in body or plan", q.Path())
		}
	}

	untraced := &Phase{}
	closedLoop(untraced, cfg.phase(), nil, next, s.Get, check, false)
	if out.EndToEnd, err = endToEndReport(setups, untraced); err != nil {
		return nil, err
	}
	var t *Tracer
	traced := &Phase{}
	if cfg.Trace {
		t = NewTracer()
		closedLoop(traced, cfg.phase(), t, next, s.Get, check, false)
	}
	out.PerLayer["serve.hit_ratio"] = float64(hits.Load()) / float64(out.Counts["timed"].Sent)

	twin, err := newTwin(t)
	if err != nil {
		return nil, err
	}
	defer twin.Close()
	for _, k := range keys {
		checkPlan(twin, k.q, k.plan, out.Checks)
	}
	if !cfg.Trace {
		return out, nil
	}
	r := out.PerLayer
	// Every hit still plans: time the sticky decision on the twin,
	// whose cells the plan check above already decided.
	for round := 0; round < replayRounds; round++ {
		for _, k := range keys {
			sp := t.Begin("plan.decide", 0, t.NewOp())
			_, err := twin.TryDecide(k.q.Dataset, k.q.Kind, k.q.Machines)
			sp.End()
			if err != nil {
				return nil, err
			}
		}
	}
	// The handler alone: Server.ServeHTTP in process into a recorder.
	for round := 0; round < replayRounds; round++ {
		for _, k := range keys {
			req := httptest.NewRequest(http.MethodGet, k.q.Path(), nil)
			rec := httptest.NewRecorder()
			sp := t.Begin("serve.handler."+k.q.Kind.String(), 0, t.NewOp())
			s.srv.ServeHTTP(rec, req)
			sp.End()
			if !bytes.Equal(rec.Body.Bytes(), k.body) {
				out.Checks.Failf("%s: in-process hit body differs from the miss body", k.q.Path())
			}
		}
	}
	for _, k := range keys {
		r["serve.body_bytes."+k.q.Kind.String()] += float64(len(k.body)) / float64(hotPerStratum*len(serveDatasets))
	}
	var handlerUs, decideUs []float64
	perEndpoint := map[string][]float64{}
	for _, sp := range t.Spans() {
		if ep, ok := strings.CutPrefix(sp.Name, "serve.handler."); ok {
			perEndpoint[ep] = append(perEndpoint[ep], us(sp.Dur()))
			handlerUs = append(handlerUs, us(sp.Dur()))
		} else if sp.Name == "plan.decide" {
			decideUs = append(decideUs, us(sp.Dur()))
		}
	}
	for ep, xs := range perEndpoint {
		r["serve.handler_us."+ep] = median(xs)
	}
	r["plan.decide_sticky_us"] = median(decideUs)
	r["http.transport_us"] = 1000*median(traced.Latencies) - median(handlerUs)
	if err := traceFixtures(t, r, twin, serveDatasets, datasets.Options{Scale: datasets.DefaultScale}, out.Checks); err != nil {
		return nil, err
	}
	r["plan.profile_ms"] = ms(SelfByName(t.Spans())["plan.profile"])
	commonLayers(r, untraced, traced, len(t.Spans()))
	return out, writeSpans(t, cfg)
}
