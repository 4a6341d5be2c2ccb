package experiments

import (
	"io"

	"rocesim/internal/invariant"
	"rocesim/internal/sim"
)

// Audit adapts the invariant auditor to the Observe hook: one auditor
// per kernel the run builds. Set Options.Observe (or an experiment
// config's Observe) to (*Audit).Observe, run, then read the verdict.
// The zero value is ready to use.
//
//	var aud experiments.Audit
//	res, err := experiments.Lookup("storm").Run(experiments.Options{Observe: aud.Observe})
//	if n := aud.Finish(); n > 0 { ... }
type Audit struct {
	// Opts tunes the auditors; the zero value uses invariant defaults.
	Opts invariant.Options
	auds []*invariant.Auditor
}

// Observe attaches an auditor to the kernel.
func (a *Audit) Observe(k *sim.Kernel) { a.auds = append(a.auds, invariant.Attach(k, a.Opts)) }

// Kernels returns how many kernels the audit attached to.
func (a *Audit) Kernels() int { return len(a.auds) }

// Events returns the trace events the auditors checked.
func (a *Audit) Events() uint64 {
	var n uint64
	for _, x := range a.auds {
		n += x.Events()
	}
	return n
}

// Finish closes every auditor and returns the total violation count
// (0 when Observe never ran).
func (a *Audit) Finish() uint64 {
	var n uint64
	for _, x := range a.auds {
		x.Finish()
		n += x.Total()
	}
	return n
}

// Report writes each auditor's summary in run order.
func (a *Audit) Report(w io.Writer) error {
	for _, x := range a.auds {
		if err := x.Report(w); err != nil {
			return err
		}
	}
	return nil
}
