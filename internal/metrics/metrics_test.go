package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"graphbench/internal/engine"
	"graphbench/internal/sim"
)

func sampleResult() *engine.Result {
	return &engine.Result{
		System: "BV", Dataset: "twitter", Workload: engine.NewPageRank(),
		Machines: 16, Status: sim.OK,
		Load: 10, Exec: 55, Save: 1, Overhead: 2,
		Iterations: 7, NetBytes: 1 << 30, MemTotal: 90 << 30, MemMax: 6 << 30,
		CPUUser: 100, CPUIO: 5, CPUNet: 20, CPUIdle: 30,
		ReplicationFactor: 9.3,
	}
}

func TestFromResult(t *testing.T) {
	r := FromResult(sampleResult())
	if r.System != "BV" || r.Workload != "pagerank" || r.Status != "OK" {
		t.Fatalf("record = %+v", r)
	}
	if r.Total != 68 {
		t.Fatalf("Total = %v, want 68", r.Total)
	}
	if r.RepFact != 9.3 {
		t.Fatalf("RepFact = %v", r.RepFact)
	}
	want := Resource{TimeSec: 68, CPUSec: 125, MemTotalBytes: 90 << 30, MemMaxBytes: 6 << 30,
		NetBytes: 1 << 30, Machines: 16, Status: "OK"}
	if got := r.Resource(); got != want {
		t.Fatalf("Resource() = %+v, want %+v", got, want)
	}
}

func TestLogRoundTrip(t *testing.T) {
	recs := []Record{FromResult(sampleResult()), FromResult(sampleResult())}
	recs[1].System = "G"
	var buf bytes.Buffer
	if err := WriteLog(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].System != "BV" || got[1].System != "G" {
		t.Fatalf("round trip lost records: %+v", got)
	}
}

func TestReadLogSkipsBlanksRejectsGarbage(t *testing.T) {
	got, err := ReadLog(strings.NewReader("\n\n{\"system\":\"BV\"}\n\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("blank handling: %v %v", got, err)
	}
	if _, err := ReadLog(strings.NewReader("not json\n{\"system\":\"BV\"}\n")); err == nil {
		t.Fatal("mid-file garbage accepted")
	}
}

// TestReadLogPartialTornFinalLine: a malformed last line is the
// signature of a writer killed mid-append — complete records come back
// with a warning, not an error.
func TestReadLogPartialTornFinalLine(t *testing.T) {
	in := "{\"system\":\"BV\"}\n{\"system\":\"G\"}\n{\"system\":\"GX\",\"exec_s"
	recs, warn, err := ReadLogPartial(strings.NewReader(in))
	if err != nil {
		t.Fatalf("torn final line should not error: %v", err)
	}
	if len(recs) != 2 || recs[0].System != "BV" || recs[1].System != "G" {
		t.Fatalf("complete records lost: %+v", recs)
	}
	if !strings.Contains(warn, "line 3") {
		t.Fatalf("warning does not identify the torn line: %q", warn)
	}
	// Trailing blanks after the torn line keep it "final".
	recs, warn, err = ReadLogPartial(strings.NewReader(in + "\n\n  \n"))
	if err != nil || len(recs) != 2 || warn == "" {
		t.Fatalf("trailing blanks changed torn-line handling: %d recs, warn %q, err %v",
			len(recs), warn, err)
	}
}

// TestReadLogPartialMidFileGarbage: a malformed line with records after
// it means the file itself is damaged, which stays a hard error.
func TestReadLogPartialMidFileGarbage(t *testing.T) {
	in := "{\"system\":\"BV\"}\nnot json\n{\"system\":\"G\"}\n"
	if _, _, err := ReadLogPartial(strings.NewReader(in)); err == nil {
		t.Fatal("mid-file garbage accepted")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error does not identify the bad line: %v", err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zero")
	}
	// 90 fast observations and 10 slow ones: the median lands in the
	// fast bucket, the p99 in the slow one. Bucket bounds are powers of
	// two times 100µs, so 0.001 rounds up to 0.0016 and 1.0 to 1.6384.
	for i := 0; i < 90; i++ {
		h.Observe(0.001)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1.0)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 < 0.001 || p50 > 0.002 {
		t.Fatalf("p50 = %v, want ~0.0016", p50)
	}
	if p99 < 1.0 || p99 > 2.0 {
		t.Fatalf("p99 = %v, want ~1.6", p99)
	}
	if sum := h.Sum(); sum < 10.08 || sum > 10.1 {
		t.Fatalf("Sum = %v, want 10.09", sum)
	}
	// Overflow bucket: beyond the last bound the quantile is +Inf, an
	// honest "off the scale" rather than a fabricated bound.
	h2 := NewHistogram()
	h2.Observe(1e6)
	if !math.IsInf(h2.Quantile(0.5), 1) {
		t.Fatalf("overflow quantile = %v, want +Inf", h2.Quantile(0.5))
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("Count = %d, want 8000", got)
	}
}

func TestFilter(t *testing.T) {
	recs := []Record{
		{System: "BV", Dataset: "twitter", Workload: "pagerank", Machines: 16},
		{System: "G", Dataset: "twitter", Workload: "wcc", Machines: 32},
		{System: "BV", Dataset: "wrn", Workload: "pagerank", Machines: 16},
	}
	if got := Filter(recs, "BV", "", "", 0); len(got) != 2 {
		t.Fatalf("system filter: %d", len(got))
	}
	if got := Filter(recs, "", "twitter", "", 0); len(got) != 2 {
		t.Fatalf("dataset filter: %d", len(got))
	}
	if got := Filter(recs, "BV", "twitter", "pagerank", 16); len(got) != 1 {
		t.Fatalf("combined filter: %d", len(got))
	}
	if got := Filter(recs, "", "", "", 64); len(got) != 0 {
		t.Fatalf("machines filter: %d", len(got))
	}
}

func TestBar(t *testing.T) {
	if got := Bar(50, 100, 10); got != "█████" {
		t.Errorf("Bar = %q", got)
	}
	if got := Bar(0, 100, 10); got != "" {
		t.Errorf("zero Bar = %q", got)
	}
	if got := Bar(1, 1000, 10); got != "█" {
		t.Errorf("tiny nonzero should render one cell, got %q", got)
	}
	if got := Bar(200, 100, 10); len([]rune(got)) != 10 {
		t.Errorf("overflow Bar = %q", got)
	}
	if got := Bar(5, 0, 10); got != "" {
		t.Errorf("zero-max Bar = %q", got)
	}
}

func TestFmtSeconds(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		1.5:    "1.50s",
		42:     "42s",
		999:    "999s",
		12117:  "12,117s",
		123456: "123,456s",
	}
	for in, want := range cases {
		if got := FmtSeconds(in); got != want {
			t.Errorf("FmtSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFmtBytes(t *testing.T) {
	if got := FmtBytes(191 << 30); got != "191 GB" {
		t.Errorf("FmtBytes = %q", got)
	}
	if got := FmtBytes(3 << 30); got != "3.0 GB" {
		t.Errorf("FmtBytes = %q", got)
	}
	if got := FmtBytes(10 << 20); got != "10 MB" {
		t.Errorf("FmtBytes = %q", got)
	}
}
