package buffer

import (
	"slices"
	"testing"
)

// fuzzPorts is the port range FuzzMMU spreads its operations over: wide
// enough that the bucket table grows across several bitmap words.
// fuzzMaxCalls caps one input's decoded calls, since every call is
// followed by a comparison of all fuzzPorts×8 buckets.
const (
	fuzzPorts    = 64
	fuzzMaxCalls = 1024
)

// fuzzConfig derives an MMU configuration from one byte: dynamic or
// static sharing, the headroom per lossless PG (zero included), and one PG
// whose headroom is overridden. The buffer is small enough that claimed
// headroom across many ports can exhaust the shared pool. lossless is the
// initial lossless PG mask.
func fuzzConfig(b, lossless byte) Config {
	cfg := Config{
		TotalBytes:    512 << 10,
		HeadroomPerPG: int(b>>1&3) * (4 << 10),
		Alpha:         1.0 / 16,
		Dynamic:       b&1 == 1,
		StaticLimit:   (4 << 10) << (b >> 3 & 3),
		XOFFDelta:     2 << 10,
	}
	cfg.PGHeadroom[b>>5] = 16 << 10
	for pg := range cfg.LosslessPGs {
		cfg.LosslessPGs[pg] = lossless&(1<<pg) != 0
	}
	return cfg
}

// FuzzMMU drives the dense MMU and the map-based reference through the
// same sequence of Admit, Release, purge, SetAlpha, SetPGAlpha,
// SetLossless and Reevaluate calls, decoded three bytes per call, and
// requires them to agree after every call on the call's result and on
// every bucket's usage and pause state, the pool totals and the drop
// counters. Both must also pass CheckConservation — except once
// SetLossless has demoted a lossless PG, whose stale state the check is
// meant to flag; from then on the two need only agree.
func FuzzMMU(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := fuzzConfig(data[0], data[1])
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefMMU(cfg)
		alphas := []float64{0, 1.0 / 128, 1.0 / 64, 1.0 / 16, 1.0 / 4, 1, 8}
		held := map[key][]int{} // admitted, unreleased packet sizes per bucket
		demoted := false

		check := func(step int, op string) {
			t.Helper()
			for port := 0; port < fuzzPorts; port++ {
				for pg := 0; pg < 8; pg++ {
					s, h := m.Usage(port, pg)
					rs, rh := ref.Usage(port, pg)
					if s != rs || h != rh {
						t.Fatalf("step %d %s: (%d,%d) usage %d/%d, reference %d/%d", step, op, port, pg, s, h, rs, rh)
					}
					if m.Paused(port, pg) != ref.Paused(port, pg) {
						t.Fatalf("step %d %s: (%d,%d) paused=%v, reference %v", step, op, port, pg, m.Paused(port, pg), ref.Paused(port, pg))
					}
				}
			}
			if m.SharedUsed() != ref.SharedUsed() || m.PeakShared != ref.PeakShared {
				t.Fatalf("step %d %s: shared %d peak %d, reference %d peak %d", step, op,
					m.SharedUsed(), m.PeakShared, ref.SharedUsed(), ref.PeakShared)
			}
			if m.Drops != ref.Drops || m.LosslessDrops != ref.LosslessDrops {
				t.Fatalf("step %d %s: drops %d/%d, reference %d/%d", step, op,
					m.Drops, m.LosslessDrops, ref.Drops, ref.LosslessDrops)
			}
			err, refErr := m.CheckConservation(), ref.CheckConservation()
			if !demoted && (err != nil || refErr != nil) {
				t.Fatalf("step %d %s: conservation: %v; reference: %v", step, op, err, refErr)
			}
			if (err == nil) != (refErr == nil) {
				t.Fatalf("step %d %s: conservation %v, reference %v", step, op, err, refErr)
			}
		}
		release := func(step int, k key) {
			q := held[k]
			tr, refTr := m.Release(k.port, k.pg, q[0]), ref.Release(k.port, k.pg, q[0])
			held[k] = q[1:]
			if tr != refTr {
				t.Fatalf("step %d release %v %d: transition %v, reference %v", step, k, q[0], tr, refTr)
			}
			check(step, "release")
		}

		for step, ops := 0, data[2:]; len(ops) >= 3 && step < fuzzMaxCalls; step, ops = step+1, ops[3:] {
			pg := int(ops[0] >> 3 & 7)
			k := key{int(ops[1]) % fuzzPorts, pg}
			arg := ops[2]
			switch ops[0] & 7 {
			case 0, 1:
				bytes := 64 + int(arg)*16
				out, tr := m.Admit(k.port, pg, bytes)
				refOut, refTr := ref.Admit(k.port, pg, bytes)
				if out != refOut || tr != refTr {
					t.Fatalf("step %d admit %v %d: %v/%v, reference %v/%v", step, k, bytes, out, tr, refOut, refTr)
				}
				if out != Drop {
					held[k] = append(held[k], bytes)
				}
				check(step, "admit")
			case 2:
				if len(held[k]) > 0 {
					release(step, k)
				}
			case 3: // purge: the watchdog releases everything a queue held
				for len(held[k]) > 0 {
					release(step, k)
				}
			case 4: // the global α stays positive, as Validate requires
				a := alphas[1+int(arg)%(len(alphas)-1)]
				m.SetAlpha(a)
				ref.SetAlpha(a)
				check(step, "alpha")
			case 5:
				a := alphas[int(arg)%len(alphas)]
				m.SetPGAlpha(pg, a)
				ref.SetPGAlpha(pg, a)
				check(step, "pg-alpha")
			case 6:
				lossless := arg&1 == 1
				demoted = demoted || (cfg.LosslessPGs[pg] && !lossless)
				cfg.LosslessPGs[pg] = lossless
				m.SetLossless(pg, lossless)
				ref.SetLossless(pg, lossless)
				check(step, "lossless")
			case 7:
				got, want := m.Reevaluate(), ref.Reevaluate()
				if !slices.Equal(got, want) {
					t.Fatalf("step %d reevaluate: %v, reference %v", step, got, want)
				}
				check(step, "reevaluate")
			}
		}
	})
}
