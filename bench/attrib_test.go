package main

import (
	"os"
	"testing"
	"time"
)

// TestAttribute checks the innermost-module rule on canned
// `go tool pprof -traces` output: runtime helpers are charged to the
// module that called them, background GC goes to go.gc, the
// benchmark's own code to bench, and shares cover every sample.
func TestAttribute(t *testing.T) {
	text, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := attribute(string(text))
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	want := map[string]time.Duration{
		"fabric":   10 * ms, // mallocgc called from the switch
		"buffer":   10 * ms, // map hashing under an inlined buffer frame
		"sim":      20 * ms,
		"irn":      10 * ms,
		layerBench: 10 * ms, // mallocgc called from the benchmark's RPC generator
		layerGC:    20 * ms, // gcBgMarkWorker and bgsweep
		layerOther: 10 * ms, // a labeled scheduler sample
	}
	var total time.Duration
	for l, d := range got {
		total += d
		if want[l] != d {
			t.Errorf("%s: got %v, want %v", l, d, want[l])
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	sum := 0.0
	for _, d := range got {
		sum += share(d, total)
	}
	if total != 90*ms || sum < 99.999 || sum > 100.001 {
		t.Errorf("total %v, shares sum to %.3f%%", total, sum)
	}
}
