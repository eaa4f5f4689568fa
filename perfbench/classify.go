package main

import (
	"encoding/json"
	"net/http"
)

// Verdict classifies one served operation for failure accounting.
type Verdict int

const (
	// Answered: a 200, or a 500 whose body carries the run metadata of
	// a deterministic modeled failure (OOM, timeout, ...). Those are
	// findings of the study, served identically every time.
	Answered Verdict = iota
	// Failed: a transport error, load shedding (429), an open breaker
	// or exhausted budget (503), a deadline (504), a 500 without run
	// metadata, or any other status.
	Failed
)

// runStatus is the part of a failed-run body the classifier reads.
type runStatus struct {
	Status string `json:"status"`
	System string `json:"system"`
}

// classify maps a response (or the transport error that replaced it)
// to its outcome.
func classify(code int, body []byte, transportErr error) Verdict {
	if transportErr != nil {
		return Failed
	}
	switch code {
	case http.StatusOK:
		return Answered
	case http.StatusInternalServerError:
		var rs runStatus
		if json.Unmarshal(body, &rs) == nil && rs.System != "" && rs.Status != "" && rs.Status != "OK" {
			return Answered
		}
	}
	return Failed
}
