package experiments

import (
	"strings"
	"testing"
)

// TestAuditGates audits every scenario that takes an observer at its
// gate run, as `roce audit` does: the invariant layer must observe zero
// violations. The runs exercise every audited family — PFC pause edges
// and watchdog trips, MMU admission through headroom, DCQCN cuts and
// recovery, go-back-N retransmission — so a regression in any of the
// guarantees turns into a named violation here rather than a silently
// wrong figure. Each run also carries the determinism matrix's recorders
// and hands the matrix its rendering.
func TestAuditGates(t *testing.T) {
	for i := range Scenarios {
		s := &Scenarios[i]
		if s.Has&HasObserve == 0 || s.Gate == nil {
			continue
		}
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			var aud Audit
			canonical, full, err := render(s, 1, true, &aud)
			if err != nil {
				t.Fatal(err)
			}
			if aud.Kernels() == 0 {
				t.Fatal("the scenario never invoked Observe")
			}
			if n := aud.Finish(); n > 0 {
				var b strings.Builder
				aud.Report(&b)
				t.Fatalf("%d invariant violation(s):\n%s", n, b.String())
			}
			if aud.Events() == 0 {
				t.Fatal("the auditors saw no trace events — not attached?")
			}
			remember(s, canonical, full)
		})
	}
}
