package faults_test

import (
	"regexp"
	"strings"
	"testing"

	"rocesim/internal/experiments"
	"rocesim/internal/faults"
	"rocesim/internal/simtime"
)

// TestHookComposesWithExperiment injects a scheduled fault into one of
// the paper's scenarios through its Observe hook — the composition the
// subsystem promises: any scenario, any fault, no scenario-side
// changes. A corrupted uplink during the Figure 10 incident must be
// applied, reverted, and survived (go-back-N keeps the chatty service
// completing operations).
func TestHookComposesWithExperiment(t *testing.T) {
	h := faults.Hook{Schedule: faults.Schedule{{
		At:       simtime.Time(10 * simtime.Millisecond),
		Duration: 20 * simtime.Millisecond,
		Kind:     faults.LinkCorrupt,
		Target:   "link:tor-0-0~leaf-0-0",
		Param:    0.02,
	}}}
	r, err := experiments.Lookup("incident").Run(experiments.Options{
		Duration: 40 * simtime.Millisecond,
		Observe:  h.Observe,
	})
	if err != nil {
		t.Fatal(err)
	}

	in := h.Injector()
	if in == nil {
		t.Fatal("experiment never ran the Observe hook")
	}
	if len(in.Log) != 2 ||
		!strings.Contains(in.Log[0], "apply link-corrupt") ||
		!strings.Contains(in.Log[1], "revert link-corrupt") {
		t.Fatalf("journal = %q", in.Log)
	}
	ops := regexp.MustCompile(`chattyOps=(\d+)`).FindAllStringSubmatch(r.Text, -1)
	if len(ops) != 2 {
		t.Fatalf("want both α rows in the rendering:\n%s", r.Text)
	}
	for _, m := range ops {
		if m[1] == "0" {
			t.Fatalf("chatty service completed nothing across the corrupted-uplink window:\n%s", r.Text)
		}
	}
}
