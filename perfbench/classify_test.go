package main

import (
	"errors"
	"testing"
)

func TestClassify(t *testing.T) {
	meta := `{"dataset":"wrn","system":"G","workload":"wcc","machines":16,"status":"TO","iterations":3,"modeled_total_sec":1,"error":"run failed: TO"}`
	for _, tc := range []struct {
		name string
		code int
		body string
		err  error
		want Verdict
	}{
		{"ok", 200, `{"status":"OK"}`, nil, Answered},
		{"modeled failure", 500, meta, nil, Answered},
		{"500 without run metadata", 500, `{"error":"internal error: boom"}`, nil, Failed},
		{"500 claiming OK", 500, `{"system":"G","status":"OK"}`, nil, Failed},
		{"500 with a broken body", 500, `{"system":`, nil, Failed},
		{"shed", 429, `{"error":"server overloaded, retry later"}`, nil, Failed},
		{"breaker or budget", 503, `{"error":"circuit breaker open"}`, nil, Failed},
		{"deadline", 504, `{"error":"request deadline exceeded"}`, nil, Failed},
		{"bad request", 400, `{"error":"bad"}`, nil, Failed},
		{"transport error", 0, "", errors.New("connection reset"), Failed},
		{"transport error after a 200", 200, `{}`, errors.New("unexpected EOF"), Failed},
	} {
		if got := classify(tc.code, []byte(tc.body), tc.err); got != tc.want {
			t.Errorf("%s: classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}
