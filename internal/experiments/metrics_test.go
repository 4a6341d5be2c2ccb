package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot")

// renderMetrics produces exactly the bytes `roce metrics -json` prints.
func renderMetrics(t *testing.T) []byte {
	t.Helper()
	res, err := Lookup("metrics").Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.JSON
}

// TestMetricsGoldenJSON pins the complete -json snapshot for seed 1:
// the simulation is deterministic, so any diff against the golden copy
// is a real behavior change. Regenerate with `go test
// ./internal/experiments -run TestMetricsGoldenJSON -update` and review
// the diff.
func TestMetricsGoldenJSON(t *testing.T) {
	got := renderMetrics(t)
	golden := filepath.Join("testdata", "metrics.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("JSON snapshot drifted from %s (%d vs %d bytes); rerun with -update if intentional",
			golden, len(got), len(want))
	}
}

// TestMetricsJSONDeterministic runs the workload twice in one process
// and requires byte-identical output — same seed, same bytes.
func TestMetricsJSONDeterministic(t *testing.T) {
	if !bytes.Equal(renderMetrics(t), renderMetrics(t)) {
		t.Fatal("same-seed runs produced different JSON")
	}
}
