package experiments

import (
	"strings"
	"testing"
)

// The full matrix and one real quick matrix are simulated once for the
// tests below.
var fullTransports, quickTransports *TransportMatrixResult

func fullTransportMatrix() TransportMatrixResult {
	if fullTransports == nil {
		r := RunTransportMatrix(DefaultTransportMatrix(false))
		fullTransports = &r
	}
	return *fullTransports
}

func quickTransportMatrix() TransportMatrixResult {
	if quickTransports == nil {
		r := RunTransportMatrix(DefaultTransportMatrix(true))
		quickTransports = &r
	}
	return *quickTransports
}

// quickOfFull is the quick grid as the full matrix's first two
// scenarios, which are the quick matrix's.
func quickOfFull() TransportMatrixResult {
	full := fullTransportMatrix()
	quick := len(TransportModes) * 2
	return TransportMatrixResult{Cfg: DefaultTransportMatrix(true), Scenarios: full.Scenarios[:2], Cells: full.Cells[:quick]}
}

// TestTransportMatrixQuick checks the quick grid on the full matrix's
// first two scenarios, and that the real quick matrix renders the same
// bytes.
func TestTransportMatrixQuick(t *testing.T) {
	r := quickOfFull()

	if r.Scenarios[0] != "pfc-storm" || r.Scenarios[1] != "incast" {
		t.Fatalf("quick scenarios: %v", r.Scenarios)
	}
	for _, c := range r.Cells {
		if c.Completed == 0 || c.GoodputGbps <= 0 {
			t.Errorf("%s/%s: no progress at all: %+v", c.Scenario, c.Mode, c)
		}
	}
	// The lossy fabrics never pause, and every victim recovers.
	if bad := r.Verdict(); len(bad) != 0 {
		t.Errorf("verdict failures: %v", bad)
	}

	// The storm must actually storm under PFC: pause frames flew, and
	// the pause-free IRN fabric kept victims faster than the paused one.
	storm := map[string]TransportCell{}
	for _, c := range r.Cells {
		if c.Scenario == "pfc-storm" {
			storm[c.Mode] = c
		}
	}
	if storm["pfc+dcqcn"].PauseTx == 0 {
		t.Error("PFC storm scenario generated no pause frames under pfc+dcqcn")
	}
	if storm["irn-no-pfc"].GoodputGbps <= storm["pfc+dcqcn"].GoodputGbps {
		t.Errorf("storm: irn-no-pfc %.2f <= pfc+dcqcn %.2f Gb/s — the storm had no cost?",
			storm["irn-no-pfc"].GoodputGbps, storm["pfc+dcqcn"].GoodputGbps)
	}

	// Byte-determinism: the whole rendered table, not just totals.
	again := quickTransportMatrix()
	if len(again.Cells) != len(r.Cells) {
		t.Fatalf("quick matrix has %d cells, want %d", len(again.Cells), len(r.Cells))
	}
	if r.Table() != again.Table() {
		t.Fatalf("transport matrix not deterministic:\n--- in the full run\n%s--- quick run\n%s", r.Table(), again.Table())
	}
	if !strings.Contains(r.Table(), "winners by goodput") {
		t.Fatal("table lost its winners section")
	}
}

// TestQuickMatrixDeterministicAndSafe checks in process what `make
// transports` checks through the CLI: the quick grid renders
// byte-identically run to run, the lossy fabrics never emit a pause
// frame, and every cell's victim traffic survives its scenario.
func TestQuickMatrixDeterministicAndSafe(t *testing.T) {
	r1 := quickOfFull()
	r2 := quickTransportMatrix()
	if r1.Table() != r2.Table() {
		t.Fatalf("matrix not byte-deterministic:\n--- run1\n%s--- run2\n%s", r1.Table(), r2.Table())
	}
	if bad := r1.Verdict(); len(bad) != 0 {
		t.Fatalf("verdict failures: %v", bad)
	}
	for _, want := range []string{"pfc-storm", "incast", "irn-no-pfc", "irn+ecn", "winners by goodput"} {
		if !strings.Contains(r1.Table(), want) {
			t.Errorf("table missing %q", want)
		}
	}
	// The three-way comparison includes all modes for each scenario.
	if got := strings.Count(r1.Table(), "pfc-storm"); got < 3 {
		t.Errorf("pfc-storm appears %d times", got)
	}
}

func TestTransportMatrixFullScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	r := fullTransportMatrix()
	if len(r.Scenarios) != 4 {
		t.Fatalf("full scenarios: %v", r.Scenarios)
	}

	cells := map[string]TransportCell{}
	for _, c := range r.Cells {
		cells[c.Scenario+"/"+c.Mode] = c
	}

	// Wire loss: both stacks recover, but go-back-N re-walks its window
	// per drop while IRN repairs selectively — strictly fewer
	// retransmissions for at least as much goodput.
	gbn := cells["loss-recovery/pfc+dcqcn"]
	irn := cells["loss-recovery/irn-no-pfc"]
	if gbn.FCSErrors == 0 || irn.FCSErrors == 0 {
		t.Fatal("loss-recovery scenario injected no loss")
	}
	if irn.Retx >= gbn.Retx {
		t.Errorf("selective repeat retransmitted %d >= go-back-N's %d", irn.Retx, gbn.Retx)
	}
	if irn.GoodputGbps < gbn.GoodputGbps {
		t.Errorf("IRN goodput %.2f below go-back-N %.2f under identical loss",
			irn.GoodputGbps, gbn.GoodputGbps)
	}

	// Pause propagation: the misconfigured-α incident floods pauses
	// only where PFC exists.
	if cells["pause-propagation/pfc+dcqcn"].PauseTx == 0 {
		t.Error("pause-propagation scenario produced no pauses under PFC")
	}
	if cells["pause-propagation/irn-no-pfc"].PauseTx != 0 {
		t.Error("pause propagation on a pause-free fabric")
	}

	// Winners are well-defined for every scenario.
	for _, s := range r.Scenarios {
		if w := r.Winner(s); w.Mode == "" {
			t.Errorf("no winner for %s", s)
		}
	}
}
