// Command rocebench is rocesim's benchmark: it times set-up and
// simulation speed of four fabric workloads on this host, checks that
// every run's simulated results are correct and identical, and in its
// traced mode attributes host CPU to the simulator's modules. See
// README.md for the workloads, metrics and how to read them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions, with the regression bound of each
// end-to-end metric.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_us_per_s", "sim_us/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the single-layer metrics of a traced run. Counts come
// from the simulation and repeat exactly; "%" metrics are the layer's
// share of sampled host CPU in the run (".cpu") or set-up (".setup_cpu")
// profile; times are medians over untraced episodes.
var perLayer = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.queue_pending", "count", "lower"},
	{"sim.shard_imbalance", "ratio", "lower"},
	{"sim.global_events", "count", "lower"},
	{"sim.cpu", "%", "lower"},
	{"link.frames", "count", "lower"},
	{"link.fcs_errors", "count", "lower"},
	{"link.cpu", "%", "lower"},
	{"fabric.rx_frames", "count", "lower"},
	{"fabric.ecn_marked", "count", "lower"},
	{"fabric.drops", "count", "lower"},
	{"fabric.cpu", "%", "lower"},
	{"fabric.setup_cpu", "%", "lower"},
	{"buffer.lossless_drops", "count", "lower"},
	{"buffer.cpu", "%", "lower"},
	{"pfc.pause_tx", "count", "lower"},
	{"pfc.pause_rx", "count", "lower"},
	{"pfc.cpu", "%", "lower"},
	{"dcqcn.rate_cuts", "count", "lower"},
	{"dcqcn.cnps_generated", "count", "lower"},
	{"dcqcn.cpu", "%", "lower"},
	{"nic.rx_frames", "count", "lower"},
	{"nic.rx_overflow_drops", "count", "lower"},
	{"nic.mtt_misses", "count", "lower"},
	{"nic.cpu", "%", "lower"},
	{"transport.tx_packets", "count", "lower"},
	{"transport.retx_packets", "count", "lower"},
	{"transport.naks_tx", "count", "lower"},
	{"transport.timeouts", "count", "lower"},
	{"transport.useful_ratio", "ratio", "higher"},
	{"transport.cpu", "%", "lower"},
	{"irn.cpu", "%", "lower"},
	{"packet.cpu", "%", "lower"},
	{"telemetry.snapshot_s", "s", "lower"},
	{"telemetry.cpu", "%", "lower"},
	{"telemetry.setup_cpu", "%", "lower"},
	{"monitor.probes", "count", "higher"},
	{"monitor.probe_failures", "count", "lower"},
	{"monitor.cpu", "%", "lower"},
	{"monitor.setup_cpu", "%", "lower"},
	{"report.fold_s", "s", "lower"},
	{"setup.deploy_s", "s", "lower"},
	{"setup.connect_s", "s", "lower"},
	{"setup.gc_s", "s", "lower"},
	{"topology.setup_cpu", "%", "lower"},
	{"core.setup_cpu", "%", "lower"},
	{"workload.messages", "count", "higher"},
	{"workload.rpc_ops", "count", "higher"},
	{"workload.rpc_p99_us", "sim_us", "lower"},
	{"workload.cpu", "%", "lower"},
	{"bench.cpu", "%", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.alloc_bytes_per_event", "B", "lower"},
	{"go.gc_cpu", "%", "lower"},
	{"go.other_cpu", "%", "lower"},
	{"trace.overhead", "ratio", "lower"},
}

// Episodes per run: enough for a median even when one episode outlasts
// the run's time budget.
const (
	minEpisodes       = 3
	minTracedEpisodes = 2
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("rocebench", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to run, or all: "+strings.Join(benchNames(), ", "))
	seed := fs.Int64("seed", 0, "simulation seed (0 = the workload's default)")
	seconds := fs.Float64("seconds", 10, "host seconds to keep starting episodes (at least 3 run)")
	trace := fs.Int("trace", 0, "1 = also run traced episodes and report per-layer metrics")
	traceDir := fs.String("tracedir", filepath.Join(".bench_build", "trace"), "where a traced run writes spans, profiles and layers.txt")
	shards := fs.Int("shards", 0, "shard count (0 = the workload's default)")
	jsonOut := fs.String("json", "", "append one JSON record per workload to this file (input of the compare mode)")
	episode := fs.String("episode", "", "internal: run one episode described by this JSON request and print its result")
	fs.Parse(os.Args[1:])

	if *episode != "" {
		os.Exit(episodeMain(*episode, os.Stdout))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "rocebench: -trace must be 0 or 1")
		os.Exit(2)
	}
	var todo []*bench
	if *name == "all" {
		todo = benches
	} else {
		b, err := benchByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rocebench:", err)
			os.Exit(2)
		}
		todo = []*bench{b}
	}
	o := opts{seed: *seed, shards: *shards, seconds: *seconds, run: spawnEpisode}
	if *trace == 1 {
		o.traceDir = *traceDir
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "rocebench:", err)
			os.Exit(1)
		}
	}
	code := 0
	var runs []*runResult
	for _, b := range todo {
		r, err := measure(b, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rocebench: %s: %v\n", b.name, err)
			os.Exit(1)
		}
		runs = append(runs, r)
		r.print(os.Stdout)
		if *jsonOut != "" {
			if err := appendRecord(*jsonOut, r); err != nil {
				fmt.Fprintln(os.Stderr, "rocebench:", err)
				os.Exit(1)
			}
		}
		if !r.correct() {
			code = 1
		}
	}
	if o.traceDir != "" {
		if err := writeTrace(o.traceDir, runs); err != nil {
			fmt.Fprintln(os.Stderr, "rocebench:", err)
			os.Exit(1)
		}
	}
	os.Exit(code)
}

func benchNames() []string {
	var out []string
	for _, b := range benches {
		out = append(out, b.name)
	}
	return out
}

// episodeMain is the child-process side: one episode, its result as
// JSON on w.
func episodeMain(reqJSON string, w io.Writer) int {
	var req episodeReq
	if err := json.Unmarshal([]byte(reqJSON), &req); err != nil {
		fmt.Fprintln(os.Stderr, "rocebench: bad episode request:", err)
		return 2
	}
	out, err := runEpisode(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rocebench:", err)
		return 1
	}
	if err := json.NewEncoder(w).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "rocebench:", err)
		return 1
	}
	return 0
}

// spawnEpisode runs one episode in a fresh child process, so that heap
// growth, peak RSS and parked shard workers never carry from one
// episode to the next. It waits for the child to exit.
func spawnEpisode(req episodeReq) (*episodeOut, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, "-episode", string(arg))
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("episode %s: %w", req.Bench, err)
	}
	var out episodeOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("episode %s: bad result: %w", req.Bench, err)
	}
	return &out, nil
}

// opts configures one run of a workload. run executes an episode: a
// child process normally, the calling process in tests.
type opts struct {
	seed     int64
	shards   int
	seconds  float64
	toy      bool
	traceDir string
	run      func(episodeReq) (*episodeOut, error)
}

// runResult is one workload's run: its episodes and what they add up to.
type runResult struct {
	bench     *bench
	seed      int64
	shards    int
	startedAt time.Time
	untraced  []*timedEpisode
	traced    []*timedEpisode
	e2e       map[string]float64
	layer     map[string]float64
	checks    []check // one per check per episode, then the agreement check
	digest    string
	table     string // the traced run's layer table
}

// timedEpisode is an episode with its launch time relative to the run.
type timedEpisode struct {
	*episodeOut
	offsetUS float64
	traced   bool
}

// measure runs episodes of b until o.seconds have passed (at least
// minEpisodes), then, when tracing, traced episodes for as long again.
func measure(b *bench, o opts) (*runResult, error) {
	r := &runResult{bench: b, seed: o.seed, shards: b.shards, startedAt: time.Now()}
	if r.seed == 0 {
		r.seed = b.seed
	}
	if o.shards > 0 {
		r.shards = o.shards
	}
	r.shards = max(r.shards, 1)
	req := episodeReq{Bench: b.name, Seed: r.seed, Shards: r.shards, Toy: o.toy}
	loop := func(min int, traced bool) ([]*timedEpisode, error) {
		var eps []*timedEpisode
		start := time.Now()
		for len(eps) < min || time.Since(start).Seconds() < o.seconds {
			q := req
			if traced {
				q.ProfileDir = o.traceDir
				q.Prefix = fmt.Sprintf("%s-%d", b.name, len(eps))
			}
			offset := float64(time.Since(r.startedAt).Microseconds())
			ep, err := o.run(q)
			if err != nil {
				return nil, err
			}
			eps = append(eps, &timedEpisode{episodeOut: ep, offsetUS: offset, traced: traced})
		}
		return eps, nil
	}
	var err error
	if r.untraced, err = loop(minEpisodes, false); err != nil {
		return nil, err
	}
	if o.traceDir != "" {
		if r.traced, err = loop(minTracedEpisodes, true); err != nil {
			return nil, err
		}
	}
	r.summarize()
	if o.traceDir != "" {
		if err := r.attribute(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// episodes returns the untraced episodes followed by the traced ones.
func (r *runResult) episodes() []*timedEpisode {
	return append(append([]*timedEpisode(nil), r.untraced...), r.traced...)
}

// summarize folds the episodes into the run's checks and metrics.
func (r *runResult) summarize() {
	all := r.episodes()
	first := all[0]
	r.digest = first.Digest
	agree := true
	for _, ep := range all {
		r.checks = append(r.checks, ep.Checks...)
		if ep.Digest != first.Digest || !reflect.DeepEqual(ep.Counts, first.Counts) {
			agree = false
		}
	}
	r.checks = append(r.checks, check{Name: "every episode has the same sim_digest and counts", OK: agree, Got: float64(len(all))})

	host := func(eps []*timedEpisode, key string) float64 {
		var xs []float64
		for _, ep := range eps {
			xs = append(xs, ep.Host[key])
		}
		return median(xs)
	}
	r.e2e = map[string]float64{
		"setup_s":      host(r.untraced, "setup_s"),
		"sim_us_per_s": simRate(r.untraced),
		"peak_rss_mb":  host(r.untraced, "peak_rss_mb"),
	}
	r.layer = make(map[string]float64)
	for k, v := range first.Counts {
		r.layer[k] = v
	}
	for _, k := range []string{"sim.ns_per_event", "setup.deploy_s", "setup.connect_s", "setup.gc_s", "telemetry.snapshot_s",
		"report.fold_s", "go.alloc_mb", "go.alloc_bytes_per_event", "go.gc_cycles"} {
		r.layer[k] = host(r.untraced, k)
	}
	if len(r.traced) > 0 {
		r.layer["trace.overhead"] = r.e2e["sim_us_per_s"] / simRate(r.traced)
	}
}

// simRate is simulated microseconds per host second over episodes of
// one workload. Every episode simulates the same deterministic slices,
// so each slice's host time is taken as its median over the episodes
// and the rate is the simulated time over the sum of those medians: a
// host hiccup that slows part of one episode drops out.
func simRate(eps []*timedEpisode) float64 {
	total := 0.0
	for j := range eps[0].Slices {
		xs := make([]float64, len(eps))
		for i, ep := range eps {
			xs[i] = ep.Slices[j]
		}
		total += median(xs)
	}
	return eps[0].SimUS / total
}

// attribute charges the traced episodes' profile samples to layers,
// fills the ".cpu" metrics and renders the layer table.
func (r *runResult) attribute() error {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed %d shards %d: %d traced episodes; share = layer's part of the phase's CPU samples, self_s = share x the phase's span wall time\n",
		r.bench.name, r.seed, r.shards, len(r.traced))
	for _, ph := range []struct{ phase, suffix string }{{"setup", ".setup_cpu"}, {"run", ".cpu"}} {
		byLayer := make(map[string]time.Duration)
		var total time.Duration
		var wall float64
		for _, ep := range r.traced {
			path := ep.SetupProf
			if ph.phase == "run" {
				path = ep.RunProf
			}
			layers, err := profileLayers(path)
			if err != nil {
				return err
			}
			for l, d := range layers {
				byLayer[l] += d
				total += d
			}
			for _, s := range ep.Spans {
				if s.Name == ph.phase || strings.HasPrefix(s.Name, ph.phase+".") {
					wall += s.seconds()
				}
			}
		}
		for _, m := range perLayer {
			if l, ok := strings.CutSuffix(m.name, ph.suffix); ok && m.unit == "%" {
				r.layer[m.name] = share(byLayer[l], total)
			}
		}
		if ph.phase == "run" {
			r.layer["go.gc_cpu"] = share(byLayer[layerGC], total)
			r.layer["go.other_cpu"] = share(byLayer[layerOther], total)
		}
		names := make([]string, 0, len(byLayer))
		for l := range byLayer {
			names = append(names, l)
		}
		sort.Slice(names, func(i, j int) bool {
			if byLayer[names[i]] != byLayer[names[j]] {
				return byLayer[names[i]] > byLayer[names[j]]
			}
			return names[i] < names[j]
		})
		fmt.Fprintf(&b, "  %-6s %-10s %7s %9s   (%.2f s sampled, span wall %.3f s)\n", ph.phase, "layer", "share", "self_s", total.Seconds(), wall)
		sum := 0.0
		for _, l := range names {
			s := share(byLayer[l], total)
			sum += s
			fmt.Fprintf(&b, "  %-6s %-10s %6.2f%% %9.4f\n", ph.phase, l, s, s/100*wall)
		}
		fmt.Fprintf(&b, "  %-6s %-10s %6.2f%% %9.4f\n", ph.phase, "total", sum, sum/100*wall)
	}
	r.table = b.String()
	return nil
}

func share(d, total time.Duration) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(d) / float64(total)
}

// attempted and failed count check evaluations.
func (r *runResult) attempted() int { return len(r.checks) }

func (r *runResult) failed() int {
	n := 0
	for _, c := range r.checks {
		if !c.OK {
			n++
		}
	}
	return n
}

func (r *runResult) correct() bool { return r.failed() == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics returns the end-to-end metrics, or the per-layer ones of a
// traced run.
func (r *runResult) metrics(layer bool) map[string]metricValue {
	defs, vals := endToEnd, r.e2e
	if layer {
		defs, vals = perLayer, r.layer
	}
	out := make(map[string]metricValue, len(defs))
	for _, m := range defs {
		out[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// print writes the run's report: every metric by name with its unit,
// the checks, and as its last line the result object, whose metrics are
// the per-layer ones for a traced run and the end-to-end ones otherwise.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d shards=%d episodes=%d traced=%d GOMAXPROCS=%d\n",
		r.bench.name, r.seed, r.shards, len(r.untraced), len(r.traced), runtime.GOMAXPROCS(0))
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-26s %14.6g %s\n", m.name, r.e2e[m.name], m.unit)
	}
	for _, m := range perLayer {
		if v, ok := r.layer[m.name]; ok {
			fmt.Fprintf(w, "%-26s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	fmt.Fprintf(w, "%-26s %14s\n", "sim_digest", r.digest)
	fmt.Fprintf(w, "%-26s %14d\n", "ops", r.attempted())
	fmt.Fprintf(w, "%-26s %14d\n", "ops_failed", r.failed())
	failed := make(map[string]int)
	var order []string
	for _, c := range r.checks {
		if _, seen := failed[c.Name]; !seen {
			order = append(order, c.Name)
			failed[c.Name] = 0
		}
		if !c.OK {
			failed[c.Name]++
		}
	}
	for _, name := range order {
		status := "ok"
		if failed[name] > 0 {
			status = fmt.Sprintf("FAILED in %d episodes", failed[name])
		}
		fmt.Fprintf(w, "check %-50s %s\n", name, status)
	}
	if r.table != "" {
		fmt.Fprint(w, r.table)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted(), r.failed(), r.metrics(len(r.traced) > 0)})
	fmt.Fprintf(w, "%s\n", line)
}

// record is one line of a -json file: a workload's run with everything
// the compare mode needs.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Shards    int                    `json:"shards"`
	StartedNS int64                  `json:"started_unix_ns"`
	Digest    string                 `json:"sim_digest"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func appendRecord(path string, r *runResult) error {
	m := r.metrics(false)
	if len(r.traced) > 0 {
		for k, v := range r.metrics(true) {
			m[k] = v
		}
	}
	line, err := json.Marshal(record{
		Workload: r.bench.name, Seed: r.seed, Shards: r.shards, StartedNS: r.startedAt.UnixNano(),
		Digest: r.digest, Correct: r.correct(), Attempted: r.attempted(), Failed: r.failed(), Metrics: m,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append %s: %w", path, err)
	}
	return f.Close()
}

// writeTrace writes every episode's spans as Chrome trace-event JSON
// (one process per workload, one thread per episode) and the layer
// tables of the traced runs.
func writeTrace(dir string, runs []*runResult) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	var events []event
	var tables strings.Builder
	base := runs[0].startedAt
	for pid, r := range runs {
		offset := float64(r.startedAt.Sub(base).Microseconds())
		for tid, ep := range r.episodes() {
			for _, s := range ep.Spans {
				events = append(events, event{
					Name: s.Name, Cat: r.bench.name, Ph: "X",
					TS: offset + ep.offsetUS + s.StartUS, Dur: s.EndUS - s.StartUS,
					PID: pid + 1, TID: tid + 1,
					Args: map[string]string{"parent": s.Parent, "workload": r.bench.name, "traced": fmt.Sprint(ep.traced)},
				})
			}
		}
		tables.WriteString(r.table)
	}
	spans, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), spans, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(tables.String()), 0o644)
}
