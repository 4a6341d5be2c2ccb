package faults

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot")

// render produces exactly the bytes `roce chaos -json` prints for the
// default seed. The full matrix simulates ~2 s of fabric time across a
// dozen cells, so the result is cached across subtests.
var cached *Scorecard

func render(t *testing.T) (*Scorecard, []byte) {
	t.Helper()
	if cached == nil {
		cached = DefaultCampaign(1).Run()
	}
	b, err := cached.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return cached, append(b, '\n')
}

// TestGoldenJSON pins the complete -json scorecard for seed 1: the
// campaign is byte-deterministic, so any diff against the golden copy is
// a real behavior change. Regenerate with `go test ./internal/faults
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

// TestAcceptanceCells checks the three demonstrations the campaign
// exists to make: the NIC pause-storm cell recovers through the §4.3
// NIC watchdog, a dead-link cell keeps traffic flowing through ECMP
// withdrawal, and the misprogrammed-MMU cell surfaces lossless-guarantee
// violations through the invariant auditor.
func TestAcceptanceCells(t *testing.T) {
	sc, _ := render(t)
	cell := func(name string) Cell {
		for _, c := range sc.Cells {
			if c.Name() == name {
				return c
			}
		}
		t.Fatalf("campaign has no cell %q", name)
		return Cell{}
	}

	storm := cell("rack-pair/nic-pause-storm")
	if !storm.ExpectFired || storm.Expect != "nic-watchdog" || !storm.Recovered {
		t.Errorf("storm cell did not recover via the NIC watchdog: %+v", storm)
	}
	if storm.SLODetectNs < 0 {
		t.Errorf("storm cell was not detected: %+v", storm)
	}

	dead := cell("rack-pair/uplink-down")
	if !dead.ExpectFired || dead.Expect != "ecmp-failover" || !dead.Recovered {
		t.Errorf("uplink-down cell did not fail over: %+v", dead)
	}
	if dead.DuringGbps <= 0 {
		t.Errorf("no traffic survived the dead uplink: %+v", dead)
	}

	mmu := cell("rack-pair-unsafe/lossless-as-lossy")
	if mmu.Violations == 0 {
		t.Errorf("misprogrammed MMU produced no invariant violations: %+v", mmu)
	}
	if mmu.Recovered {
		t.Errorf("unprotected misconfiguration unexpectedly recovered: %+v", mmu)
	}
	if mmu.DumpLines == 0 {
		t.Errorf("unrecovered cell carries no flight-recorder dump: %+v", mmu)
	}

	if sc.Failed() {
		t.Fatalf("expected safeguards missing:\n%s", sc.Text())
	}
}
