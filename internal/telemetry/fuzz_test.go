package telemetry

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rocesim/internal/stats"
)

// The pools FuzzRegistry draws from. Devices and names share prefixes so
// singles, blocks and lookups meet in one device slot; some devices,
// label keys and values hold the characters that delimit a rendered key
// ('{', '=', ','). Singles take those, so a single's key can render like
// a block member's from different parts; blocks reject them.
var (
	fuzzDevices = []string{"tor-0", "tor-1", "srv-0", "pingmesh/tor", "tor-0/rtt", "", "x{", "p=q", "c,d"}
	fuzzNames   = []string{"", "/rx_frames", "/pause_rx", "/pause_time_ps", "/pause_engaged", "/x", "/q", "/ps", "/rtt/ps"}
	fuzzLabels  = [][]Label{
		nil,
		{{"port", "1"}},
		{{"port", "2"}},
		{{"pri", "3"}},
		{{"pri", "4"}},
		{{"port", "1"}, {"pri", "3"}},
		{{"pri", "3"}, {"port", "1"}},
		{{"pri", "3"}, {"pri", "4"}},
		{{"k", "v,w"}},
		{{"k", "v"}, {"w", ""}},
		{{"k=", "v"}},
		{{"a", "1"}, {"port", "1"}, {"pri", "3"}},
		{{"port", "x{"}},
		{{"k", "v,w="}},
	}
	fuzzTables = [][]Metric{
		{{Suffix: "/rx_frames"}, {Suffix: "/pause_rx"}, {Suffix: "/pause_tx"}},
		{
			{Suffix: "/pause_time_ps", Labels: []Label{{"pri", "3"}}},
			{Suffix: "/pause_time_ps", Labels: []Label{{"pri", "4"}}},
			{Suffix: "/pause_engaged"},
		},
		{{Suffix: "/x", Labels: []Label{{"port", "1"}}}, {Suffix: "/x"}},
		{{Suffix: "/rx_frames"}, {Suffix: "/rx_frames"}},
		{{Suffix: "/x", Labels: []Label{{"k", "v,w"}}}, {Suffix: "/x", Labels: []Label{{"k", "v"}, {"w", ""}}}},
		{{Suffix: "/q", Labels: []Label{{"pri", "4"}}}, {Suffix: "/q", Labels: []Label{{"pri", "3"}, {"port", "2"}}}},
		{{Suffix: "/pause_rx"}},
		{{Suffix: "/ps"}, {Suffix: "/x", Labels: []Label{{"pri", "3"}, {"pri", "4"}}}},
	}
	fuzzFloats = []float64{0, 1, -1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		5e-324, 1e21, 1e20, 1<<53 + 1, 123456.789, 1e-7, math.MaxFloat64}
)

const fuzzMaxOps = 256

func pick[T any](pool []T, b byte) T { return pool[int(b)%len(pool)] }

// plainBlock reports whether the registry takes a block: its device
// holds no '{' and no block or member label key or value holds ',' or
// '='.
func plainBlock(dev string, table []Metric, labels []Label) bool {
	plain := func(ls []Label) bool {
		for _, l := range ls {
			if strings.ContainsAny(l.K, ",=") || strings.ContainsAny(l.V, ",=") {
				return false
			}
		}
		return true
	}
	if strings.Contains(dev, "{") || !plain(labels) {
		return false
	}
	for _, m := range table {
		if !plain(m.Labels) {
			return false
		}
	}
	return true
}

// sameFloat compares values the way their text does: NaN equals NaN.
func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// catch runs f and returns the message it panicked with, or "".
func catch(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// FuzzRegistry drives the block registry and the map-keyed reference
// through the same registrations, decoded five bytes per operation:
// single counters, gauges and histograms and counter and
// gauge blocks, with and without block and member labels, plus counter
// increments, gauge and histogram changes, and Has, Reader and Len on
// labeled and unlabeled keys. A registration that panics on one side
// must panic on the other with the same message, which ends the input.
// A block the registry does not take (see plainBlock) must panic on it
// and leave it unchanged; the reference does not see it. Otherwise the
// snapshots' Text (the reference renders through fmt) and JSON must be
// identical after every operation.
func FuzzRegistry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, ref := NewRegistry(), newRefRegistry()
		var (
			ctrs    []*Counter
			refCtrs []*refCounter
			hists   []*stats.Histogram
			refHist []*stats.Histogram
		)
		vals := make([]float64, 8) // what gauges read
		for step := 0; len(data) >= 5 && step < fuzzMaxOps; step, data = step+1, data[5:] {
			op, a, b, c, d := data[0], data[1], data[2], data[3], data[4]
			name := pick(fuzzDevices, a) + pick(fuzzNames, b)
			labels := pick(fuzzLabels, c)
			slot := int(d) % len(vals)
			register := func(got, want func()) bool {
				gotMsg, wantMsg := catch(got), catch(want)
				if gotMsg != wantMsg {
					t.Fatalf("step %d op %d %q %v: panic %q, reference %q", step, op%11, name, labels, gotMsg, wantMsg)
				}
				return gotMsg == ""
			}
			rejected := func(f func()) {
				if catch(f) == "" {
					t.Fatalf("step %d op %d: block %q %v took a '{' device or a ',' or '=' label", step, op%11, pick(fuzzDevices, a), labels)
				}
			}
			switch op % 11 {
			case 0:
				if !register(func() { ctrs = append(ctrs, r.Counter(name, labels...)) },
					func() { refCtrs = append(refCtrs, ref.Counter(name, labels...)) }) {
					return
				}
			case 1:
				fn := func() float64 { return vals[slot] }
				if !register(func() { r.Gauge(name, fn, labels...) }, func() { ref.Gauge(name, fn, labels...) }) {
					return
				}
			case 2:
				if !register(func() { hists = append(hists, r.Histogram(name, labels...)) },
					func() { refHist = append(refHist, ref.Histogram(name, labels...)) }) {
					return
				}
			case 3:
				dev, table := pick(fuzzDevices, a), pick(fuzzTables, b)
				if !plainBlock(dev, table, labels) {
					rejected(func() { r.Counters(dev, table, labels...) })
					break
				}
				if !register(func() {
					for i, cs := 0, r.Counters(dev, table, labels...); i < len(cs); i++ {
						ctrs = append(ctrs, &cs[i])
					}
				}, func() { refCtrs = append(refCtrs, ref.Counters(dev, table, labels...)...) }) {
					return
				}
			case 4:
				dev, table := pick(fuzzDevices, a), pick(fuzzTables, b)
				members := uint64(d) & (1<<len(table) - 1)
				fn := func(i int) float64 { return vals[(slot+i)%len(vals)] }
				if !plainBlock(dev, table, labels) {
					rejected(func() { r.Gauges(dev, table, members, fn, labels...) })
					break
				}
				if !register(func() { r.Gauges(dev, table, members, fn, labels...) },
					func() { ref.Gauges(dev, table, members, fn, labels...) }) {
					return
				}
			case 5:
				if len(ctrs) > 0 {
					i := (int(a) | int(b)<<8) % len(ctrs)
					n := uint64(c)
					if d&1 == 1 {
						n = math.MaxUint64 - uint64(c)
					}
					ctrs[i].Add(n)
					refCtrs[i].v += n
				}
			case 6:
				vals[slot] = pick(fuzzFloats, a)
			case 7:
				v := float64(a) * float64(int(b)+1)
				if len(hists) > 0 {
					hists[int(c)%len(hists)].Observe(v)
					refHist[int(c)%len(refHist)].Observe(v)
				}
			case 8:
				if got, want := r.Has(name, labels...), ref.Has(name, labels...); got != want {
					t.Fatalf("step %d: Has(%q, %v) = %v, reference %v", step, name, labels, got, want)
				}
			case 9:
				// A block member's key, or any name's: both sides look it up.
				k := refKey(name, labels)
				if d&1 == 1 {
					tm := pick(fuzzTables, b)
					m := tm[int(d>>1)%len(tm)]
					k = refKey(pick(fuzzDevices, a)+m.Suffix, memberLabels(m, labels))
				}
				rd, ok := r.Reader(k)
				want, refOK := ref.Reader(k)
				if ok != refOK {
					t.Fatalf("step %d: Reader(%q) found %v, reference %v", step, k, ok, refOK)
				}
				if ok && !sameFloat(rd.Value(), want()) {
					t.Fatalf("step %d: Reader(%q) = %g, reference %g", step, k, rd.Value(), want())
				}
			case 10:
				// Len alone; it is compared below after every operation.
			}
			if r.Len() != ref.Len() {
				t.Fatalf("step %d: Len %d, reference %d", step, r.Len(), ref.Len())
			}
			got, want := r.Snapshot(), ref.Snapshot()
			if gt, wt := got.Text(), fmtText(want); gt != wt {
				t.Fatalf("step %d op %d: text\n%s\nreference\n%s", step, op%11, gt, wt)
			}
			gj, gerr := got.JSON()
			wj, werr := want.JSON()
			if string(gj) != string(wj) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("step %d: JSON %s (%v), reference %s (%v)", step, gj, gerr, wj, werr)
			}
		}
	})
}
