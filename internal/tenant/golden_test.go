package tenant

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot")

// render produces exactly the bytes `roce tenants -json` prints for the
// default seed. The matrix simulates four 60 ms cells, so the result is
// cached across subtests.
var cached *Scorecard

func render(t *testing.T) (*Scorecard, []byte) {
	t.Helper()
	if cached == nil {
		cached = Run(1, 1)
	}
	b, err := cached.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return cached, append(b, '\n')
}

// TestGoldenJSON pins the complete -json scorecard for seed 1: the
// matrix is byte-deterministic, so any diff against the golden copy is
// a real behavior change. Regenerate with `go test ./internal/tenant
// -run TestGoldenJSON -update` and review the diff.
func TestGoldenJSON(t *testing.T) {
	_, got := render(t)
	golden := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("scorecard drifted from %s (%d vs %d bytes); rerun with -update if intentional",
			golden, len(got), len(want))
	}
}

// TestShardInvariance pins the §13 contract for the matrix: the -json
// scorecard is byte-identical whether each cell simulated on one shard
// or four. The workload drivers live on their servers' shard kernels
// and the fat-finger rides the barrier-run global kernel, so worker
// scheduling must never leak into the scored output.
func TestShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns the full matrix sharded")
	}
	_, got := render(t)
	sharded, err := Run(1, 4).JSON()
	if err != nil {
		t.Fatal(err)
	}
	sharded = append(sharded, '\n')
	if !bytes.Equal(got, sharded) {
		t.Fatalf("scorecard diverges across shard counts (%d vs %d bytes)", len(got), len(sharded))
	}
}

// TestIsolationContract checks the demonstrations the matrix exists to
// make: under the per-class QoS plan the GPU collective's p99 slowdown
// stays within the isolation limit of its solo run and storage retains
// its goodput floor; the shared-PG fat-finger pushes the GPU tenant
// past the limit the configured mix respects; and the misconfig cell is
// caught by the config-drift safeguard while the configured cells stay
// clean.
func TestIsolationContract(t *testing.T) {
	sc, _ := render(t)
	rows := map[string]IsolationRow{}
	for _, r := range sc.Isolation {
		rows[r.Tenant] = r
	}

	gpu, ok := rows["gpu"]
	if !ok {
		t.Fatal("no gpu isolation row")
	}
	if !gpu.Isolated || gpu.Ratio > IsolationLimit {
		t.Errorf("gpu not isolated under the configured mix: %+v", gpu)
	}
	if gpu.MisconfigRatio <= IsolationLimit {
		t.Errorf("fat-finger did not demonstrably break gpu isolation (misconfig %.2fx <= limit %.1fx)",
			gpu.MisconfigRatio, IsolationLimit)
	}
	if gpu.MisconfigP99 <= gpu.MixedP99 {
		t.Errorf("misconfig p99 %.2fx not worse than configured mix %.2fx", gpu.MisconfigP99, gpu.MixedP99)
	}

	st, ok := rows["storage"]
	if !ok {
		t.Fatal("no storage isolation row")
	}
	if !st.Isolated || st.Retention < GoodputFloor {
		t.Errorf("storage did not retain its goodput floor: %+v", st)
	}

	for _, c := range sc.Cells {
		switch c.Cell {
		case "mixed-misconfig":
			if c.Drifts == 0 {
				t.Errorf("fat-finger invisible to the drift check: %+v", c)
			}
			found := false
			for _, s := range c.Safeguards {
				if s == "config-drift" {
					found = true
				}
			}
			if !found {
				t.Errorf("misconfig cell not caught by a named safeguard: %+v", c)
			}
		default:
			if c.Drifts != 0 || len(c.Safeguards) != 0 {
				t.Errorf("%s: spurious drift/safeguard in a configured cell: %+v", c.Cell, c)
			}
			if c.Violations != 0 {
				t.Errorf("%s: invariant violations in a configured cell: %+v", c.Cell, c)
			}
		}
	}
	if sc.Failed() {
		t.Fatalf("matrix failed:\n%s", sc.Text())
	}
}
