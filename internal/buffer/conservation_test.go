package buffer

import (
	"math/rand"
	"testing"
)

func losslessCfg() Config {
	cfg := Config{
		TotalBytes:    9 << 20,
		HeadroomPerPG: 40 << 10,
		Alpha:         1.0 / 16,
		Dynamic:       true,
		XOFFDelta:     2 << 10,
	}
	cfg.LosslessPGs[3] = true
	cfg.LosslessPGs[4] = true
	return cfg
}

func TestCheckConservationCleanLifecycle(t *testing.T) {
	m, err := New(losslessCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatalf("fresh MMU: %v", err)
	}
	for i := 0; i < 200; i++ {
		m.Admit(i%4, 3+(i%2), 1086)
		if err := m.CheckConservation(); err != nil {
			t.Fatalf("after admit %d: %v", i, err)
		}
	}
	for i := 0; i < 200; i++ {
		m.Release(i%4, 3+(i%2), 1086)
		if err := m.CheckConservation(); err != nil {
			t.Fatalf("after release %d: %v", i, err)
		}
	}
	if m.SharedUsed() != 0 {
		t.Fatalf("drained MMU holds %d shared bytes", m.SharedUsed())
	}
}

func TestCheckConservationCatchesCorruption(t *testing.T) {
	mk := func() *MMU {
		m, err := New(losslessCfg())
		if err != nil {
			t.Fatal(err)
		}
		m.Admit(0, 3, 4096)
		m.Admit(1, 4, 4096)
		return m
	}
	at := func(m *MMU, port, pg int) *bucket { return &m.buckets[m.index(port, pg)] }
	cases := []struct {
		name    string
		corrupt func(m *MMU)
	}{
		{"total drift", func(m *MMU) { m.sharedUsed += 100 }},
		{"negative bucket", func(m *MMU) { at(m, 0, 3).shared = -5 }},
		{"paused bitmap disagrees with bucket", func(m *MMU) { m.paused[0] |= 1 << (2<<3 | 3) }},
		{"headroom on lossy PG", func(m *MMU) { at(m, 0, 0).headroom = 64 }},
		{"headroom beyond reservation", func(m *MMU) { at(m, 0, 3).headroom = m.cfg.HeadroomPerPG + 1 }},
		{"unclaimed headroom", func(m *MMU) { at(m, 5, 4).headroom = 64 }},
		{"paused lossy PG", func(m *MMU) { m.paused[0] |= 1 << (0<<3 | 1) }},
		{"reservation ledger drift", func(m *MMU) { m.reservedBytes++ }},
		{"peak below usage", func(m *MMU) { m.PeakShared = m.sharedUsed - 1 }},
	}
	for _, tc := range cases {
		m := mk()
		if err := m.CheckConservation(); err != nil {
			t.Fatalf("%s: pre-corruption: %v", tc.name, err)
		}
		tc.corrupt(m)
		if err := m.CheckConservation(); err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		}
	}
}

// Satellite regression: interleaved ingress releases and watchdog-style
// bulk purges must keep the books balanced. A purge is a burst of
// Release calls for everything a queue held — the same path the switch
// watchdog uses — racing (in event-interleaving terms) with ordinary
// per-packet releases and new admissions on the same buckets.
func TestAccountingUnderInterleavedReleaseAndPurge(t *testing.T) {
	m, err := New(losslessCfg())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	// held[k] tracks what the "switch" currently has admitted per bucket,
	// split by packet so purges release exact packet sizes.
	held := make(map[key][]int)
	admit := func(port, pg int) {
		bytes := 64 + rng.Intn(4096)
		out, _ := m.Admit(port, pg, bytes)
		if out != Drop {
			k := key{port, pg}
			held[k] = append(held[k], bytes)
		}
	}
	releaseOne := func(k key) {
		q := held[k]
		if len(q) == 0 {
			return
		}
		m.Release(k.port, k.pg, q[0])
		held[k] = q[1:]
	}
	purge := func(k key) {
		for _, b := range held[k] {
			m.Release(k.port, k.pg, b)
		}
		held[k] = nil
	}
	buckets := []key{{0, 3}, {0, 4}, {1, 3}, {1, 4}, {2, 3}}
	for step := 0; step < 5000; step++ {
		k := buckets[rng.Intn(len(buckets))]
		switch rng.Intn(10) {
		case 0: // watchdog purge: dump the whole bucket at once
			purge(k)
		case 1, 2, 3: // ordinary egress drain
			releaseOne(k)
		default:
			admit(k.port, k.pg)
		}
		if err := m.CheckConservation(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for _, k := range buckets {
		purge(k)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatalf("after final purge: %v", err)
	}
	if m.SharedUsed() != 0 {
		t.Fatalf("leak: %d shared bytes still charged after releasing everything", m.SharedUsed())
	}
	for _, k := range buckets {
		if s, h := m.Usage(k.port, k.pg); s != 0 || h != 0 {
			t.Fatalf("bucket %v still charged: shared=%d headroom=%d", k, s, h)
		}
		if m.Paused(k.port, k.pg) {
			t.Fatalf("bucket %v still paused after drain", k)
		}
	}
}
