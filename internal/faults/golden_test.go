package faults

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
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
	if !storm.Detected {
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

// TestPFCCellsMatchPR5 pins the lossless fleet's scores to the snapshot
// taken before the campaign learned about transports
// (testdata/golden-pr5.json): the transport column and the IRN scenarios
// are additive, so every pre-existing PFC+DCQCN cell must score exactly
// what it scored then, field for field. A diff here means the transport
// refactor changed lossless-path behavior, not just added to it.
func TestPFCCellsMatchPR5(t *testing.T) {
	old, cur := loadCells(t, "golden-pr5.json"), loadCells(t, "golden.json")
	if len(old) == 0 {
		t.Fatal("golden-pr5.json holds no cells")
	}
	for name, want := range old {
		got, ok := cur[name]
		if !ok {
			t.Errorf("cell %s disappeared from the campaign", name)
			continue
		}
		if tr := got["transport"]; tr != "pfc+dcqcn" {
			t.Errorf("%s: pre-existing cell reports transport %v", name, tr)
		}
		for key, w := range want {
			if !reflect.DeepEqual(got[key], w) {
				t.Errorf("%s: %s drifted from PR5: %v -> %v", name, key, w, got[key])
			}
		}
		// No new scoring fields beyond the transport column (PR6) and the
		// SLO time-to-detect column (PR7).
		if len(got) != len(want)+2 {
			t.Errorf("%s: field count %d, want %d+transport+sloDetectNs", name, len(got), len(want))
		}
	}
}

// loadCells reads a golden scorecard into per-cell field maps.
func loadCells(t *testing.T, name string) map[string]map[string]any {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var sc struct {
		Cells []map[string]any `json:"cells"`
	}
	if err := json.Unmarshal(raw, &sc); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]map[string]any, len(sc.Cells))
	for _, c := range sc.Cells {
		out[c["scenario"].(string)+"/"+c["fault"].(string)] = c
	}
	return out
}

// TestCellsMatchPR6 pins every cell — all transports — to the snapshot
// taken before the health plane's SLO column was added
// (testdata/golden-pr6.json): the burn-rate engine scrapes in the
// kernel's observer band and must not perturb any simulated behavior,
// so every pre-existing field must score exactly what it scored then,
// and sloDetectNs must be the only new field.
func TestCellsMatchPR6(t *testing.T) {
	old, cur := loadCells(t, "golden-pr6.json"), loadCells(t, "golden.json")
	if len(old) == 0 {
		t.Fatal("golden-pr6.json holds no cells")
	}
	for name, want := range old {
		got, ok := cur[name]
		if !ok {
			t.Errorf("cell %s disappeared from the campaign", name)
			continue
		}
		for key, w := range want {
			if !reflect.DeepEqual(got[key], w) {
				t.Errorf("%s: %s drifted from PR6: %v -> %v", name, key, w, got[key])
			}
		}
		if _, ok := got["sloDetectNs"]; !ok {
			t.Errorf("%s: sloDetectNs column missing", name)
		}
		if len(got) != len(want)+1 {
			t.Errorf("%s: field count %d, want %d+sloDetectNs", name, len(got), len(want))
		}
	}
	for name := range cur {
		if _, ok := old[name]; !ok && !addedPR10[name] {
			t.Errorf("cell %s not in PR6 golden and not a known PR10 addition", name)
		}
	}
}

// addedPR10 names the cells the multi-tenant QoS plane added: the two
// cross-class config faults. Every other cell must predate PR10.
var addedPR10 = map[string]bool{
	"rack-pair/shared-pg":       true,
	"rack-pair/cnp-lossy-class": true,
}

// TestCellsMatchPR9 pins every cell to the snapshot taken before the
// multi-tenant QoS plane (testdata/golden-pr9.json): the per-class
// buffer/ECN/QoS-map plumbing defaults to the old single-class behavior
// and the two cross-class fault cells are additive, so every pre-existing
// cell must score exactly what it scored then, field for field, with no
// new scoring columns.
func TestCellsMatchPR9(t *testing.T) {
	old, cur := loadCells(t, "golden-pr9.json"), loadCells(t, "golden.json")
	if len(old) == 0 {
		t.Fatal("golden-pr9.json holds no cells")
	}
	for name, want := range old {
		got, ok := cur[name]
		if !ok {
			t.Errorf("cell %s disappeared from the campaign", name)
			continue
		}
		for key, w := range want {
			if !reflect.DeepEqual(got[key], w) {
				t.Errorf("%s: %s drifted from PR9: %v -> %v", name, key, w, got[key])
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: field count %d, want %d (no new columns in PR10)", name, len(got), len(want))
		}
	}
	for name := range cur {
		if _, ok := old[name]; !ok && !addedPR10[name] {
			t.Errorf("cell %s not in PR9 golden and not a known PR10 addition", name)
		}
	}
	for name := range addedPR10 {
		if _, ok := cur[name]; !ok {
			t.Errorf("cross-class fault cell %s missing from the campaign", name)
		}
	}
}
