package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"graphbench/internal/engine"
	"graphbench/internal/metrics"
)

// modeledRecord is a result's run record with the host-only governor
// fields cleared: what remains is the modeled (paper) outcome, which no
// shard count, worker count or memory tier may change.
func modeledRecord(res *engine.Result) metrics.Record {
	rec := metrics.FromResult(res)
	rec.MemBudget, rec.PeakHeap, rec.SpillBytes = 0, 0, 0
	rec.SoftEvents, rec.HardEvents, rec.Spilled = 0, 0, false
	return rec
}

// digest hashes the modeled records of results, in order.
func digest(results []*engine.Result) string {
	h := sha256.New()
	for _, res := range results {
		// %+v prints every field by name, floats in their shortest
		// round-trip form; a hash.Hash never returns a write error.
		fmt.Fprintf(h, "%+v\n", modeledRecord(res))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprint hashes a result's modeled record and every output, bit
// for bit: two runs with equal fingerprints computed the same thing.
func fingerprint(res *engine.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", modeledRecord(res))
	// Writes into a hash.Hash never fail.
	_ = binary.Write(h, binary.LittleEndian, res.Ranks)
	_ = binary.Write(h, binary.LittleEndian, res.Labels)
	_ = binary.Write(h, binary.LittleEndian, res.Dist)
	_ = binary.Write(h, binary.LittleEndian, res.Triangles)
	return hex.EncodeToString(h.Sum(nil))
}
