package buffer

import (
	"testing"
	"testing/quick"
)

func defaultConfig() Config {
	var lossless [8]bool
	lossless[3] = true
	lossless[4] = true // the paper's two lossless classes
	return Config{
		TotalBytes:    9 << 20, // 9 MB ToR
		HeadroomPerPG: 100 << 10,
		Alpha:         1.0 / 16,
		Dynamic:       true,
		XOFFDelta:     18 << 10, // ~2 MTU hysteresis
		LosslessPGs:   lossless,
	}
}

func mustNew(t *testing.T, cfg Config) *MMU {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{TotalBytes: 1, Dynamic: true, Alpha: 0, XOFFDelta: 1},
		{TotalBytes: 1, Dynamic: false, StaticLimit: 0, XOFFDelta: 1},
		{TotalBytes: 1, Dynamic: true, Alpha: 1, XOFFDelta: 0},
		{TotalBytes: 1, Dynamic: true, Alpha: 1, XOFFDelta: 1, HeadroomPerPG: -1},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := New(defaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestHeadroomCalculation(t *testing.T) {
	// 40G link (5e9 B/s), 300 m cable, 3 us reaction, 1086 B MTU:
	// 2*1086 + 64 + 5e9*(2*300*5e-9 + 3e-6) = 2236 + 5e9*6e-6 = 32236.
	h := Headroom(1086, 5_000_000_000, 300, 3e-6)
	if h < 30000 || h > 35000 {
		t.Fatalf("headroom %d out of expected band", h)
	}
	// Longer cables need more headroom — the paper's reason for the
	// two-lossless-class limit.
	if Headroom(1086, 5e9, 300, 3e-6) <= Headroom(1086, 5e9, 20, 3e-6) {
		t.Fatal("headroom must grow with cable length")
	}
}

func TestAdmitSharedBelowThreshold(t *testing.T) {
	m := mustNew(t, defaultConfig())
	out, tr := m.Admit(0, 3, 1086)
	if out != AdmitShared || tr != None {
		t.Fatalf("out=%v tr=%v", out, tr)
	}
	s, h := m.Usage(0, 3)
	if s != 1086 || h != 0 {
		t.Fatalf("usage %d/%d", s, h)
	}
}

func TestXOFFAtDynamicThreshold(t *testing.T) {
	m := mustNew(t, defaultConfig())
	// Fill one bucket until it pauses.
	var paused bool
	var n int
	for i := 0; i < 10000 && !paused; i++ {
		_, tr := m.Admit(0, 3, 1086)
		if tr == XOFF {
			paused = true
		}
		n++
	}
	if !paused {
		t.Fatal("bucket never paused")
	}
	if !m.Paused(0, 3) {
		t.Fatal("Paused() disagrees")
	}
	// The dynamic threshold with alpha=1/16: B = a/(1+a) * pool ≈ 0.0588*pool.
	pool := m.Config().TotalBytes - 2*m.Config().HeadroomPerPG // not yet claimed for pg4
	_ = pool
	s, _ := m.Usage(0, 3)
	approx := float64(s) / float64(m.Config().TotalBytes)
	if approx < 0.03 || approx > 0.09 {
		t.Fatalf("paused at %.4f of buffer, expected ~a/(1+a)=0.059", approx)
	}
}

func TestSmallerAlphaPausesEarlier(t *testing.T) {
	// The 07/12/2015 incident: alpha silently changed from 1/16 to 1/64
	// and pause frames triggered much more easily.
	fill := func(alpha float64) int {
		cfg := defaultConfig()
		cfg.Alpha = alpha
		m := mustNew(t, cfg)
		for i := 0; ; i++ {
			if _, tr := m.Admit(0, 3, 1086); tr == XOFF {
				return i
			}
			if i > 1_000_000 {
				t.Fatal("never paused")
			}
		}
	}
	p16, p64 := fill(1.0/16), fill(1.0/64)
	if p64*3 > p16 {
		t.Fatalf("alpha=1/64 paused after %d pkts, 1/16 after %d: want ~4x earlier", p64, p16)
	}
}

func TestXONHysteresis(t *testing.T) {
	m := mustNew(t, defaultConfig())
	var admitted []int
	for {
		out, tr := m.Admit(0, 3, 1086)
		if out == Drop {
			t.Fatal("unexpected drop")
		}
		admitted = append(admitted, 1086)
		if tr == XOFF {
			break
		}
	}
	// Releasing one packet must NOT immediately resume (hysteresis).
	if tr := m.Release(0, 3, 1086); tr == XON {
		t.Fatal("resumed without hysteresis gap")
	}
	// Draining everything must resume.
	var resumed bool
	for i := 0; i < len(admitted)-1; i++ {
		if tr := m.Release(0, 3, 1086); tr == XON {
			resumed = true
			break
		}
	}
	if !resumed {
		t.Fatal("never resumed after drain")
	}
	if m.Paused(0, 3) {
		t.Fatal("still paused after XON")
	}
}

func TestHeadroomAbsorbsAfterXOFF(t *testing.T) {
	m := mustNew(t, defaultConfig())
	for {
		if _, tr := m.Admit(0, 3, 1086); tr == XOFF {
			break
		}
	}
	// In-flight packets keep arriving during the "gray period"; they go
	// to headroom, not drops.
	out, _ := m.Admit(0, 3, 1086)
	if out == AdmitShared {
		// Threshold may allow a few more shared admissions as UB shrinks;
		// push until headroom engages.
		for i := 0; i < 1000; i++ {
			out, _ = m.Admit(0, 3, 1086)
			if out != AdmitShared {
				break
			}
		}
	}
	if out != AdmitHeadroom {
		t.Fatalf("gray-period packet got %v, want AdmitHeadroom", out)
	}
	if m.LosslessDrops != 0 {
		t.Fatal("lossless packet dropped with headroom available")
	}
}

func TestHeadroomOverflowDrops(t *testing.T) {
	cfg := defaultConfig()
	cfg.HeadroomPerPG = 2048 // deliberately undersized
	m := mustNew(t, cfg)
	for i := 0; i < 100000; i++ {
		m.Admit(0, 3, 1086)
	}
	if m.LosslessDrops == 0 {
		t.Fatal("undersized headroom must eventually drop lossless packets")
	}
}

func TestLossyPGDropsInsteadOfPausing(t *testing.T) {
	m := mustNew(t, defaultConfig())
	var dropped bool
	for i := 0; i < 1_000_000; i++ {
		out, tr := m.Admit(0, 1, 1086) // PG1 is lossy
		if tr != None {
			t.Fatal("lossy PG must never signal pause")
		}
		if out == Drop {
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("lossy PG never dropped")
	}
	if m.LosslessDrops != 0 {
		t.Fatal("drop misclassified as lossless")
	}
}

func TestStaticMode(t *testing.T) {
	cfg := defaultConfig()
	cfg.Dynamic = false
	cfg.StaticLimit = 10 * 1086
	m := mustNew(t, cfg)
	var tr Transition
	n := 0
	for tr != XOFF {
		_, tr = m.Admit(0, 3, 1086)
		n++
		if n > 100 {
			t.Fatal("static mode never paused")
		}
	}
	if n != 10 {
		t.Fatalf("static XOFF after %d pkts, want 10", n)
	}
}

func TestDynamicSharingGivesMoreThanStatic(t *testing.T) {
	// The paper: "dynamic buffer sharing statistically gives RDMA traffic
	// more buffers" — with one hot port, dynamic alpha=1/16 of a 9MB pool
	// far exceeds a fair static split across 32 ports.
	dyn := mustNew(t, defaultConfig())
	static := defaultConfig()
	static.Dynamic = false
	static.StaticLimit = static.TotalBytes / 32 / 4 // 32 ports, 4 classes
	st := mustNew(t, static)
	fill := func(m *MMU) int {
		n := 0
		for {
			if _, tr := m.Admit(0, 3, 1086); tr == XOFF {
				return n
			}
			n++
		}
	}
	if fill(dyn) <= fill(st) {
		t.Fatal("dynamic sharing should absorb more before pausing here")
	}
}

func TestThresholdShrinksUnderContention(t *testing.T) {
	m := mustNew(t, defaultConfig())
	t0 := m.Threshold()
	// Other ports consume the shared pool.
	for p := 1; p <= 8; p++ {
		for i := 0; i < 500; i++ {
			m.Admit(p, 4, 1086)
		}
	}
	if m.Threshold() >= t0 {
		t.Fatalf("threshold %d must shrink from %d as pool fills", m.Threshold(), t0)
	}
}

func TestReevaluateResumesAfterRemoteDrain(t *testing.T) {
	cfg := defaultConfig()
	cfg.XOFFDelta = 2048
	m := mustNew(t, cfg)
	// Port 1 fills to its own XOFF point, shrinking the shared pool;
	// port 0 then pauses at a shrunken threshold.
	for {
		if _, tr := m.Admit(1, 4, 1086); tr == XOFF {
			break
		}
	}
	for {
		if _, tr := m.Admit(0, 3, 1086); tr == XOFF {
			break
		}
	}
	// The packet that tripped XOFF landed in headroom; the switch
	// forwards it (a bucket holding headroom must not resume).
	if _, h0 := m.Usage(0, 3); h0 > 0 {
		if tr := m.Release(0, 3, h0); tr == XON {
			t.Fatal("resumed while still above XON band")
		}
	}
	// Port 1 drains completely; the pool grows; port 0's bucket is now
	// below threshold but saw no event of its own.
	for {
		s1, h1 := m.Usage(1, 4)
		if s1+h1 == 0 {
			break
		}
		rel := 1086
		if s1+h1 < rel {
			rel = s1 + h1
		}
		m.Release(1, 4, rel)
	}
	resumed := m.Reevaluate()
	found := false
	for _, r := range resumed {
		if r.Port == 0 && r.PG == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("Reevaluate did not resume the starved bucket")
	}
}

// TestReevaluateZeroAlloc pins the transmit-path MMU cycle at zero
// allocations: three lossless buckets are paused by a Release after a
// high-α lossy filler shrank the threshold, the filler drains, and
// Reevaluate resumes all three.
func TestReevaluateZeroAlloc(t *testing.T) {
	cfg := defaultConfig()
	cfg.PGAlpha[1] = 8
	m := mustNew(t, cfg)
	const held = 64 << 10
	cycle := func() {
		for port := 0; port < 3; port++ {
			m.Admit(port, 3, held)
		}
		// Leave 256 KB unallocated: the lossless threshold drops to 16 KB.
		filler := cfg.TotalBytes - 3*cfg.HeadroomPerPG - m.SharedUsed() - 256<<10
		if out, _ := m.Admit(5, 1, filler); out != AdmitShared {
			t.Fatalf("filler got %v", out)
		}
		for port := 0; port < 3; port++ {
			if tr := m.Release(port, 3, 1<<10); tr != XOFF {
				t.Fatalf("port %d: release under the shrunken threshold gave %v, want XOFF", port, tr)
			}
		}
		m.Release(5, 1, filler)
		if got := m.Reevaluate(); len(got) != 3 {
			t.Fatalf("Reevaluate resumed %v, want 3 buckets", got)
		}
		for port := 0; port < 3; port++ {
			m.Release(port, 3, held-1<<10)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("pause-and-resume cycle allocated %.1f times, want 0", allocs)
	}
}

func TestReleasePanicsOnUnderflow(t *testing.T) {
	m := mustNew(t, defaultConfig())
	m.Admit(0, 3, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-release")
		}
	}()
	m.Release(0, 3, 200)
}

// Property: accounting never goes negative and shared usage equals the
// sum over buckets, under arbitrary admit/release interleavings.
func TestAccountingInvariantProperty(t *testing.T) {
	f := func(ops []struct {
		Port  uint8
		PG    uint8
		Bytes uint16
		Rel   bool
	}) bool {
		m, _ := New(defaultConfig())
		held := map[[2]int]int{}
		for _, op := range ops {
			port, pg := int(op.Port%4), int(op.PG%8)
			b := int(op.Bytes%2000) + 1
			k := [2]int{port, pg}
			if op.Rel {
				if held[k] < b {
					continue
				}
				m.Release(port, pg, b)
				held[k] -= b
			} else {
				out, _ := m.Admit(port, pg, b)
				if out != Drop {
					held[k] += b
				}
			}
		}
		sum := 0
		for k, v := range held {
			s, h := m.Usage(k[0], k[1])
			if s < 0 || h < 0 || s+h != v {
				return false
			}
			sum += s
		}
		return m.SharedUsed() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxLosslessClasses(t *testing.T) {
	// The paper's shallow-buffer ToR: 9MB, 32 ports, 300m-grade headroom
	// (~65KB with reaction margins) => only ~2 lossless classes fit.
	h := Headroom(1086, 5e9, 300, 10e-6) // generous reaction time
	got := MaxLosslessClasses(9<<20, 32, h)
	if got < 1 || got > 3 {
		t.Fatalf("9MB/32 ports/300m: %d classes (headroom %d); paper affords 2", got, h)
	}
	// Short cables afford more classes.
	h20 := Headroom(1086, 5e9, 20, 1e-6)
	if MaxLosslessClasses(9<<20, 32, h20) <= got {
		t.Fatal("short cables must afford at least as many classes")
	}
	// Degenerate inputs.
	if MaxLosslessClasses(9<<20, 0, 100) != 8 {
		t.Fatal("no ports => unconstrained")
	}
}

func TestInterDCLosslessInfeasible(t *testing.T) {
	// Section 8.1: "the hop-by-hop distance for PFC is limited to 300
	// meters". At metro distances the required headroom per (port, PG)
	// exceeds any shallow buffer: PFC (and hence RoCEv2 as deployed)
	// cannot stretch between data centers.
	h10km := Headroom(1086, 5e9, 10_000, 3e-6)
	if h10km < 500_000 {
		t.Fatalf("10km headroom %d implausibly small", h10km)
	}
	if got := MaxLosslessClasses(9<<20, 32, h10km); got != 0 {
		t.Fatalf("a 9MB/32-port switch supports %d lossless classes at 10km; must be 0", got)
	}
	// While 300m leaves a workable budget.
	if got := MaxLosslessClasses(9<<20, 32, Headroom(1086, 5e9, 300, 3e-6)); got < 2 {
		t.Fatalf("300m supports only %d classes; the paper runs 2", got)
	}
}
