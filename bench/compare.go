package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the compare mode reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

// specMetric is one metric entry of BENCHMARK.json. Bound, the share of
// the parent's median by which a metric may worsen, is set on
// end-to-end metrics only.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

// compareMain implements `rocebench compare parent.jsonl change.jsonl`:
// the i-th record of a workload in one file is paired with the i-th
// record of that workload in the other. For every workload and
// end-to-end metric it prints each side's median and quartiles, the
// share of pairs each side won, and a verdict against the metric's
// bound. It exits 1 when some metric regressed, 2 on bad input.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: rocebench compare [-spec BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	var sp spec
	raw, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rocebench compare:", err)
		return 2
	}
	parent, err := readRecords(fs.Arg(0))
	if err == nil {
		var change map[string][]record
		if change, err = readRecords(fs.Arg(1)); err == nil {
			return compare(w, sp, parent, change)
		}
	}
	fmt.Fprintln(os.Stderr, "rocebench compare:", err)
	return 2
}

// readRecords groups a -json file's records by workload, in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

func compare(w io.Writer, sp spec, parent, change map[string][]record) int {
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(w, "no workload has records on both sides")
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-13s %5s  %-30s %-30s %8s  %-11s %s\n",
		"workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "worse", "wins c/p/=", "verdict")
	for _, name := range names {
		p, c := parent[name], change[name]
		n := min(len(p), len(c))
		p, c = p[:n], c[:n]
		for _, warn := range pairWarnings(p, c) {
			fmt.Fprintf(w, "warning: %s: %s\n", name, warn)
		}
		for _, m := range sp.EndToEnd {
			pv, cv := values(p, m.Name), values(c, m.Name)
			pq, cq := quartiles(pv), quartiles(cv)
			sign := 1.0 // +1: a larger value is worse
			if m.Better == "higher" {
				sign = -1
			}
			var cw, pw, ties int
			for i := range pv {
				switch d := sign * (cv[i] - pv[i]); {
				case d < 0:
					cw++
				case d > 0:
					pw++
				default:
					ties++
				}
			}
			worse := sign * (cq[1] - pq[1]) / pq[1]
			verdict := judge(pv, cv, pq, cq, sign, worse, m.Bound, cw)
			if verdict == "regression" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-13s %5d  %-30s %-30s %+7.1f%%  %-11s %s\n", name, m.Name, n,
				fmtQuartiles(pq), fmtQuartiles(cq), 100*worse, fmt.Sprintf("%d/%d/%d", cw, pw, ties), verdict)
		}
	}
	return code
}

// judge applies the benchmark's rules to one workload × metric:
//   - the parent's own spread (q3-q1 over its median) wider than the
//     bound leaves the metric unresolved, unless every change run beats
//     every parent run;
//   - a change median worse than the parent's by more than the bound is
//     a regression;
//   - a gain needs at least minPairs pairs, the change winning nine
//     tenths of them, and medians further apart than the parent's
//     quartile spread.
func judge(pv, cv []float64, pq, cq [3]float64, sign, worse, bound float64, changeWins int) string {
	n := len(pv)
	if (pq[2]-pq[0])/pq[1] > bound {
		if sign*(extreme(cv, sign)-extreme(pv, -sign)) < 0 {
			return "better in every run"
		}
		return "unresolved (parent spread > bound)"
	}
	if worse > bound {
		return "regression"
	}
	if sign*(cq[1]-pq[1]) < 0 && math.Abs(cq[1]-pq[1]) > pq[2]-pq[0] && 10*changeWins >= 9*n {
		if n < minPairs {
			return fmt.Sprintf("gain needs >= %d pairs", minPairs)
		}
		return "gain"
	}
	return "no regression"
}

// extreme returns the largest value of xs for dir = +1 and the smallest
// for dir = -1: a side's worst run when dir is its worse direction.
func extreme(xs []float64, dir float64) float64 {
	best := xs[0]
	for _, x := range xs[1:] {
		if dir*(x-best) > 0 {
			best = x
		}
	}
	return best
}

// pairWarnings reports pairs that do not compare like with like: a
// different seed, a changed simulation digest, a failed check, or runs
// that did not alternate which side went first.
func pairWarnings(p, c []record) []string {
	var out []string
	if len(p) < minPairs {
		out = append(out, fmt.Sprintf("only %d pairs; a claim needs >= %d", len(p), minPairs))
	}
	alternating := true
	for i := range p {
		if p[i].Seed != c[i].Seed {
			out = append(out, fmt.Sprintf("pair %d ran seed %d against seed %d", i, p[i].Seed, c[i].Seed))
		} else if p[i].Digest != c[i].Digest {
			out = append(out, fmt.Sprintf("pair %d: sim_digest differs (%s vs %s): the change altered simulated results", i, p[i].Digest, c[i].Digest))
		}
		if !p[i].Correct || !c[i].Correct {
			out = append(out, fmt.Sprintf("pair %d has a failed check", i))
		}
		if i > 0 && (p[i].StartedNS < c[i].StartedNS) == (p[i-1].StartedNS < c[i-1].StartedNS) {
			alternating = false
		}
	}
	if !alternating {
		out = append(out, "pairs did not alternate which side ran first")
	}
	return out
}

func values(rs []record, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

func fmtQuartiles(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	return quartiles(xs)[1]
}

// quartiles returns q1, median and q3 of xs with the "exclusive" method
// of Python's statistics.quantiles(xs, n=4); with fewer than two values
// all three are the value itself (0 for none).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
