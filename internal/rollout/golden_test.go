package rollout

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot")

// render produces exactly the bytes `roce rollout -json` prints for the
// default seed. The campaign simulates 800 ms of fleet time across four
// cases, so the result is cached across subtests.
var cached *Scorecard

func render(t *testing.T) (*Scorecard, []byte) {
	t.Helper()
	if cached == nil {
		cached = DefaultCampaign(1, 1).Run()
	}
	b, err := cached.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return cached, append(b, '\n')
}

// TestGoldenJSON pins the complete -json scorecard for seed 1: the
// campaign is byte-deterministic, so any diff against the golden copy
// is a real behavior change. Regenerate with `go test
// ./internal/rollout -run TestGoldenJSON -update` and review the diff.
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

// TestShardInvariance pins the §13 contract for the whole campaign: the
// -json scorecard is byte-identical whether each case's fleet simulated
// on one shard or four. The controller, its gates and the scrapers are
// global-kernel events offset from every data-event instant, so shard
// scheduling must never leak into the scored output.
func TestShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns the full campaign sharded")
	}
	_, got := render(t)
	sharded, err := DefaultCampaign(1, 4).Run().JSON()
	if err != nil {
		t.Fatal(err)
	}
	sharded = append(sharded, '\n')
	if !bytes.Equal(got, sharded) {
		t.Fatalf("scorecard diverges across shard counts (%d vs %d bytes)", len(got), len(sharded))
	}
}

// TestAcceptanceCases checks the demonstrations the campaign exists to
// make: a good config reaches the whole fleet with zero rollbacks; the
// §6.2 bad-α pipeline is caught at the canary with a one-device blast
// radius; the canary-evading and drift-invisible payloads are stopped
// no later than the podset wave; and every rollback ends with zero
// residual drift.
func TestAcceptanceCases(t *testing.T) {
	sc, _ := render(t)
	cell := func(name string) Cell {
		for _, c := range sc.Cells {
			if c.Case == name {
				return c
			}
		}
		t.Fatalf("campaign has no case %q", name)
		return Cell{}
	}

	good := cell("good-alpha-1-8")
	if !good.Completed || good.RolledBack || good.Touched != good.Fleet {
		t.Errorf("good config did not reach the fleet: %+v", good)
	}

	bad := cell("bad-alpha-canary")
	if !bad.RolledBack || bad.TrippedWave != "canary" || bad.Touched != 1 {
		t.Errorf("bad α not caught at the canary: %+v", bad)
	}
	if bad.Gate != "drift" {
		t.Errorf("bad α caught by %q, want the drift gate", bad.Gate)
	}
	if bad.DetectNs < 0 {
		t.Errorf("bad α has no detection time: %+v", bad)
	}

	evading := cell("bad-alpha-evading")
	if !evading.RolledBack || evading.TrippedWave == "fleet" {
		t.Errorf("canary-evading payload reached the fleet wave: %+v", evading)
	}

	mmu := cell("lossless-as-lossy")
	if !mmu.RolledBack {
		t.Errorf("drift-invisible payload was not rolled back: %+v", mmu)
	}
	if mmu.Gate == "drift" {
		t.Errorf("drift gate cannot see an MMU-only payload, yet it tripped: %+v", mmu)
	}

	ecn := cell("good-ecn-per-class")
	if !ecn.Completed || ecn.RolledBack || ecn.Touched != ecn.Fleet {
		t.Errorf("per-class ECN retune did not reach the fleet: %+v", ecn)
	}

	shared := cell("shared-pg-fatfinger")
	if !shared.RolledBack || shared.TrippedWave != "canary" || shared.Touched != 1 {
		t.Errorf("shared-PG fat-finger not caught at the canary: %+v", shared)
	}
	if shared.Gate != "drift" {
		t.Errorf("shared-PG fat-finger caught by %q, want the drift gate", shared.Gate)
	}

	for _, c := range sc.Cells {
		if c.ResidualDrifts != 0 {
			t.Errorf("%s: %d residual drifts after final state", c.Case, c.ResidualDrifts)
		}
		if !c.Recovered {
			t.Errorf("%s: goodput did not recover (base %.1fG, final %.1fG)", c.Case, c.BaselineGbps, c.FinalGbps)
		}
	}
	if sc.Failed() {
		t.Fatalf("campaign failed:\n%s", sc.Text())
	}
}
