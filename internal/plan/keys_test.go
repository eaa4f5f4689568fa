package plan_test

import (
	"reflect"
	"testing"

	"graphbench/internal/core"
	"graphbench/internal/plan"
)

// TestSystemKeysMatchRegistry: the planner maps the grid log's system
// labels to keys with its own table (plan cannot import core); it must
// equal the registry's Label/Key pairs.
func TestSystemKeysMatchRegistry(t *testing.T) {
	want := make(map[string]string)
	for _, s := range core.Systems() {
		want[s.Label] = s.Key
	}
	if got := plan.SystemKeysForTest; !reflect.DeepEqual(got, want) {
		t.Fatalf("plan label→key table %v, registry %v", got, want)
	}
}
