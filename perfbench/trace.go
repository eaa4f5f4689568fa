package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the
// program. Spans of one operation share Op; Parent is the ID of the
// span that caused this one (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer records spans in memory. The nil Tracer records nothing and
// costs one nil check per call, which is what untraced phases use.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
	next  int64 // last span id
	ops   int64 // last operation id
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewOp returns a fresh operation id (0 for the nil Tracer).
func (t *Tracer) NewOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// Begin opens a span and returns its handle; call End on it.
func (t *Tracer) Begin(name string, parent, op int64) *Open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &Open{t: t, s: Span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.epoch))}}
}

// Open is a span that has begun but not ended.
type Open struct {
	t *Tracer
	s Span
}

// ID returns the span's id (0 for the nil handle), for children.
func (o *Open) ID() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// End closes the span and records it.
func (o *Open) End() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines, ordered by start time.
func (t *Tracer) WriteFile(path string) error {
	spans := t.Spans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Children may nest,
// overlap one another (parallel work) or stick out past the parent;
// only the union of their intervals, clipped to the parent, counts.
func SelfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// SelfByName sums self time per span name.
func SelfByName(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
