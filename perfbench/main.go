// Command perfbench is graphbench's end-to-end benchmark. One process
// generates a workload from a seed, drives it through the repository's
// public entry points, checks every output, and prints one JSON object
// as its last line of standard output:
//
//	perfbench --workload grid --seed 1 --seconds 10 --trace 0
//
// Workloads: grid (the full main grid through core.Runner.RunGrid,
// plus a sample of governed out-of-core runs in its traced run), and
// serve-cold and serve-hot (closed-loop HTTP clients against
// serve.New). With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it runs the workload
// untraced and then traced, records spans around its calls into each
// layer, and reports the per-layer metrics. README.md describes the
// workloads and layers.json maps every per-layer metric to the
// end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// outDir holds everything a run writes: span files under spans/ and
// governor spill files under tmp/.
const outDir = ".bench_build"

// Config is one invocation's settings.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
}

// phase returns how long one timed phase runs: the whole budget
// untraced, half of it each for the untraced and traced phases of a
// traced run.
func (c Config) phase() time.Duration {
	d := time.Duration(c.Seconds * float64(time.Second))
	if c.Trace {
		d /= 2
	}
	return d
}

// Outcome is what a workload hands back to main.
type Outcome struct {
	EndToEnd Report
	PerLayer Report
	Counts   map[string]*Counts // per phase: warmup, timed
	Checks   *Checks
}

// newOutcome returns an empty outcome with both phases' counters.
func newOutcome() *Outcome {
	return &Outcome{PerLayer: Report{}, Counts: map[string]*Counts{"warmup": {}, "timed": {}}, Checks: &Checks{}}
}

// Report maps metric names to values.
type Report map[string]float64

// Counts tallies the operations of one phase.
type Counts struct {
	mu                     sync.Mutex
	Sent, Succeeded, Fails int
}

// Add records one operation's outcome.
func (c *Counts) Add(ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Sent++
	if ok {
		c.Succeeded++
	} else {
		c.Fails++
	}
}

// Checks collects failed output checks. A run with any failed check is
// not a valid measurement: it reports correct=false.
type Checks struct {
	mu    sync.Mutex
	fails []string
}

// Failf records one failed check.
func (c *Checks) Failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fails = append(c.fails, fmt.Sprintf(format, args...))
}

// Failed returns the failed checks.
func (c *Checks) Failed() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.fails...)
}

var workloads = map[string]func(Config) (*Outcome, error){
	"grid":       runGrid,
	"serve-cold": runServeCold,
	"serve-hot":  runServeHot,
}

func main() {
	var cfg Config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "grid | serve-cold | serve-hot")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input generation seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "measurement time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.Trace = trace == 1
	run, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.Workload, cfg.Seconds, trace)
		os.Exit(2)
	}
	// The environment must not reshape the runs: a budget or snapshot
	// directory inherited from the shell would change what is measured.
	os.Unsetenv("GRAPHBENCH_MEM_BUDGET")
	os.Unsetenv("GRAPHBENCH_SNAPSHOT_DIR")
	// Governor spill files stay inside the checkout the benchmark runs
	// in.
	tmp, err := filepath.Abs(filepath.Join(outDir, "tmp"))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Setenv("TMPDIR", tmp)

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := render(cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// render checks the outcome against the declared metric set and
// formats the result line.
func render(cfg Config, out *Outcome) (string, error) {
	for _, ph := range []string{"warmup", "timed"} {
		c := out.Counts[ph]
		fmt.Fprintf(os.Stderr, "phase %-6s sent %6d  succeeded %6d  failed %d\n", ph, c.Sent, c.Succeeded, c.Fails)
		out.PerLayer["ops."+ph+".sent"] = float64(c.Sent)
		out.PerLayer["ops."+ph+".succeeded"] = float64(c.Succeeded)
		out.PerLayer["ops."+ph+".failed"] = float64(c.Fails)
	}
	failedChecks := out.Checks.Failed()
	for i, f := range failedChecks {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "check: ... %d more\n", len(failedChecks)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "check:", f)
	}
	timed := out.Counts["timed"]
	if timed.Sent == 0 {
		return "", errors.New("no operation was attempted")
	}

	defs, values := endToEnd, out.EndToEnd
	if cfg.Trace {
		defs, values = perLayer, out.PerLayer
	}
	metrics := make(map[string]any, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			if !cfg.Trace {
				missing = append(missing, d.Name)
			}
			// A per-layer metric off this workload's path reads 0
			// (layers.json lists where each one applies).
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("workload %s did not measure %s", cfg.Workload, strings.Join(missing, ", "))
	}
	b, err := json.Marshal(map[string]any{
		"correct":   len(failedChecks) == 0 && timed.Fails == 0,
		"attempted": timed.Sent,
		"failed":    timed.Fails,
		"metrics":   metrics,
	})
	return string(b), err
}

// writeSpans writes the traced run's spans to outDir/spans.
func writeSpans(t *Tracer, cfg Config) error {
	dir := filepath.Join(outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return t.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed)))
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
