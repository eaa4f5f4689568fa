package core

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"

	"graphbench/internal/datasets"
	"graphbench/internal/metrics"
)

// calibrationLog is the planner's calibration source, relative to this
// package.
const calibrationLog = "../plan/grid.jsonl"

// regenerate is the command that rewrites calibrationLog, run from the
// repository root. The empty budget keeps governor fields out of the
// log.
const regenerate = "GRAPHBENCH_MEM_BUDGET= go run ./cmd/graphbench -grid -log internal/plan/grid.jsonl"

// floatTol is the relative tolerance for float fields. Architectures
// that fuse x*y+z (arm64) round modeled costs differently in the last
// bits; any real cost change moves them by far more.
const floatTol = 1e-9

// TestCalibrationGridFresh holds the planner's calibration to the
// engines it describes: every record of the embedded grid log must
// match a fresh run of the main grid at the default scale and seed —
// strings and integers exactly, floats within floatTol — so a change
// to any modeled cost fails here until the log is regenerated.
func TestCalibrationGridFresh(t *testing.T) {
	raw, err := os.ReadFile(calibrationLog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := metrics.ReadLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(0, 1)
	// Governed runs log budget fields the calibration grid does not
	// carry; the modeled costs are the same either way.
	r.MemoryBudget = 0
	defer r.Close()
	var got []metrics.Record
	for _, res := range r.RunGrid(MainGrid(datasets.Twitter, datasets.UK, datasets.WRN)) {
		got = append(got, metrics.FromResult(res))
	}
	stale := len(got) != len(want)
	if stale {
		t.Errorf("fresh grid has %d records, %s has %d", len(got), calibrationLog, len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if field := recordDiff(got[i], want[i]); field != "" {
			t.Errorf("%s record %d differs in %s:\n  fresh:    %+v\n  embedded: %+v",
				calibrationLog, i+1, field, got[i], want[i])
			stale = true
			break
		}
	}
	if stale {
		t.Fatal("the planner's calibration is stale; regenerate it from the repository root with\n  " + regenerate)
	}
}

// recordDiff names the first field in which a and b differ, or returns
// "" when they match: float fields within floatTol relative, all
// others exactly.
func recordDiff(a, b metrics.Record) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			x, y := fa.Float(), fb.Float()
			if math.Abs(x-y) > floatTol*math.Max(math.Abs(x), math.Abs(y)) {
				return va.Type().Field(i).Name
			}
			continue
		}
		if !fa.Equal(fb) {
			return va.Type().Field(i).Name
		}
	}
	return ""
}
