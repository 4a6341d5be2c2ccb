package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64 // statistics.quantiles(in, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}, [3]float64{3.5, 24, 160}},
		{[]float64{5, 1, 9, 3, 7}, [3]float64{2, 5, 8}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCompareVerdicts feeds the compare mode alternating pairs whose
// change side is clearly faster, clearly slower, or lost in a noisy
// parent.
func TestCompareVerdicts(t *testing.T) {
	sp := spec{EndToEnd: []specMetric{{Name: "sim_us_per_s", Unit: "sim_us/s", Better: "higher", Bound: 0.1}}}
	side := func(name string, vals []float64, first bool) []record {
		var out []record
		for i, v := range vals {
			started := int64(2*i) * 1e9
			if (i%2 == 0) != first {
				started += 1e9
			}
			out = append(out, record{Workload: name, Seed: int64(i), Digest: "d", Correct: true,
				StartedNS: started, Metrics: map[string]metricValue{"sim_us_per_s": {Value: v}}})
		}
		return out
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(by float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * by
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 50, 150, 90, 110, 100}
	parent := map[string][]record{
		"faster": side("faster", steady, true),
		"slower": side("slower", steady, true),
		"noisy":  side("noisy", noisy, true),
	}
	change := map[string][]record{
		"faster": side("faster", shift(1.2), false),
		"slower": side("slower", shift(0.8), false),
		"noisy":  side("noisy", steady, false),
	}
	var out bytes.Buffer
	if code := compare(&out, sp, parent, change); code != 1 {
		t.Errorf("exit code %d, want 1 for the regression", code)
	}
	for workload, verdict := range map[string]string{
		"faster": "gain",
		"slower": "regression",
		"noisy":  "unresolved",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, workload+" ") {
				found = true
				if !strings.Contains(line, verdict) {
					t.Errorf("%s: %q, want verdict %q", workload, line, verdict)
				}
			}
		}
		if !found {
			t.Errorf("no row for %s in\n%s", workload, out.String())
		}
	}
	if strings.Contains(out.String(), "warning") {
		t.Errorf("unexpected warning:\n%s", out.String())
	}
}
