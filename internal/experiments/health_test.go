package experiments

import (
	"strings"
	"testing"

	"rocesim/internal/health"
)

// runHealthAll runs every health scenario at its defaults.
func runHealthAll(t *testing.T) []*health.Report {
	t.Helper()
	var out []*health.Report
	for _, n := range HealthScenarios() {
		rep, err := RunHealth(DefaultHealth(n))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rep)
	}
	return out
}

// healthRuns is the first run of every health scenario, shared by the
// tests below.
var healthRuns []*health.Report

func healthReports(t *testing.T) []*health.Report {
	if healthRuns == nil {
		healthRuns = runHealthAll(t)
	}
	return healthRuns
}

// TestHealthReportsByteDeterministic is the acceptance gate: both
// scenarios, run twice from the same seed, render byte-identical text
// AND JSON reports — the property `make health` re-checks on the
// command's output.
func TestHealthReportsByteDeterministic(t *testing.T) {
	r1, r2 := healthReports(t), runHealthAll(t)
	if len(r1) != 2 || len(r2) != 2 {
		t.Fatalf("got %d/%d reports, want 2", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Text() != r2[i].Text() {
			t.Fatalf("%s text not byte-deterministic:\n--- run1\n%s--- run2\n%s",
				r1[i].Scenario, r1[i].Text(), r2[i].Text())
		}
		j1, err := r1[i].JSON()
		if err != nil {
			t.Fatal(err)
		}
		j2, _ := r2[i].JSON()
		if string(j1) != string(j2) {
			t.Fatalf("%s JSON not byte-deterministic", r1[i].Scenario)
		}
		if d := r1[i].Diff(r2[i], 0.001); len(d) != 0 {
			t.Fatalf("%s self-diff: %v", r1[i].Scenario, d)
		}
	}
}

// TestHealthScenarioVerdicts pins the scenarios' contracts: the PFC
// storm must breach its SLOs (and the report must say which and when),
// the IRN rack pair must ride out its corrupted cable clean.
func TestHealthScenarioVerdicts(t *testing.T) {
	reports := healthReports(t)
	byName := map[string]bool{}
	for _, r := range reports {
		byName[r.Scenario] = r.Breached
	}
	if !byName["pfc-storm"] {
		t.Error("pfc-storm did not breach any SLO")
	}
	if byName["rack-pair-irn"] {
		t.Error("rack-pair-irn breached an SLO; IRN should absorb the corruption")
	}
	for _, r := range reports {
		txt := r.Text()
		for _, want := range []string{"objectives:", "distributions:", "heatmap", "pause-rate-ceiling", "goodput-floor-500mbps"} {
			if !strings.Contains(txt, want) {
				t.Errorf("%s report missing %q:\n%s", r.Scenario, want, txt)
			}
		}
		if r.Scrapes == 0 {
			t.Errorf("%s: no scrapes ran", r.Scenario)
		}
		if len(r.Series) == 0 {
			t.Errorf("%s: no series scraped", r.Scenario)
		}
	}
	// The storm's breach must be attributable to the fault window
	// ([T/4, 3T/4) = [50ms, 150ms) at the default 200ms duration).
	for _, r := range reports {
		if r.Scenario != "pfc-storm" {
			continue
		}
		if !strings.Contains(r.Text(), "BREACH") {
			t.Error("pfc-storm text verdict is not BREACH")
		}
		sawBreachInWindow := false
		for _, a := range r.Alerts {
			if !a.Cleared && a.AtNs >= 50e6 && a.AtNs < 150e6 {
				sawBreachInWindow = true
			}
		}
		if !sawBreachInWindow {
			t.Errorf("pfc-storm breach alerts outside fault window: %+v", r.Alerts)
		}
	}
}

// TestHealthUnknownScenario: an unknown scenario is an error, not a
// panic.
func TestHealthUnknownScenario(t *testing.T) {
	if _, err := RunHealth(DefaultHealth("nope")); err == nil {
		t.Fatal("unknown scenario did not error")
	}
}
