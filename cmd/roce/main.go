// Command roce runs the simulator's named scenarios: every figure of
// the paper's evaluation and the operational campaigns, one entry each
// in experiments.Scenarios. With no flags a scenario prints its
// reference run; the same seed always prints the same bytes, at any
// -shards value.
//
// Usage:
//
//	roce <scenario> [flags]             run a scenario
//	roce trace <scenario> [-format f]   replay it with the flow tracer and flight recorder attached
//	roce audit                          run every observable scenario's gate run under the invariant auditor
//	roce analyze <capture.pcap>         dissect a capture
//
// Run roce with no arguments for the scenario list and the flags.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"rocesim/internal/experiments"
	"rocesim/internal/flighttrace"
	"rocesim/internal/pcap"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// needs maps each scenario flag to what a scenario must have to take it.
var needs = map[string]experiments.Has{
	"seed": experiments.HasSeed, "shards": experiments.HasShards,
	"duration": experiments.HasDuration, "audit": experiments.HasObserve,
	"tors": experiments.HasFabric, "servers": experiments.HasFabric,
	"qps": experiments.HasFabric, "warmup": experiments.HasFabric,
	"podsets": experiments.HasPodsets, "json": experiments.HasJSON,
	"grep": experiments.HasSnapshot, "fail-on-breach": experiments.HasSLO,
}

// usageError is a bad command line: exit status 2, before any kernel
// is built. An empty one was already reported by the flag package.
type usageError string

func (e usageError) Error() string { return string(e) }

func usagef(format string, a ...any) error { return usageError(fmt.Sprintf(format, a...)) }

// run is the command: it parses args, runs, writes to stdout and
// stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	err := dispatch(args, stdout, stderr)
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ue):
		if ue != "" {
			fmt.Fprintln(stderr, "roce:", ue)
		}
		return 2
	default:
		fmt.Fprintln(stderr, "roce:", err)
		return 1
	}
}

func dispatch(args []string, stdout, stderr io.Writer) (err error) {
	if len(args) == 0 {
		usage(stderr)
		return usageError("")
	}
	verb, args := args[0], args[1:]
	var s *experiments.Scenario
	var arg string // trace's scenario, analyze's file
	if verb == "trace" || verb == "analyze" {
		if len(args) == 0 || strings.HasPrefix(args[0], "-") {
			return usagef("%s needs an argument", verb)
		}
		arg, args = args[0], args[1:]
	}
	var has experiments.Has
	switch verb {
	case "audit", "analyze":
	case "trace":
		if s = experiments.Lookup(arg); s == nil || s.Has&experiments.HasObserve == 0 {
			return usagef("trace: %q is not a scenario that takes an observer", arg)
		}
		has = s.Has &^ (experiments.HasObserve | experiments.HasJSON | experiments.HasSnapshot | experiments.HasSLO)
	default:
		if s = experiments.Lookup(verb); s == nil {
			usage(stderr)
			return usagef("unknown scenario %q", verb)
		}
		has = s.Has
	}

	fs := flag.NewFlagSet("roce "+verb, flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 0, "simulation seed (0 = the scenario's own)")
	shards := fs.Int("shards", 1, "event-kernel shards (workers); output is byte-identical for any value")
	duration := fs.Duration("duration", 0, "run length (0 = the scenario's own)")
	jsonOut := fs.Bool("json", false, "print the JSON rendering")
	audit := fs.Bool("audit", false, "attach the invariant auditor and fail on violations")
	out := fs.String("o", "", "output file (default stdout; for capture, the pcap, default capture.pcap)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	tors := fs.Int("tors", 0, "fig7: ToR pairs (0 = 24)")
	servers := fs.Int("servers", 0, "fig7: participating servers per ToR (0 = 8)")
	qps := fs.Int("qps", 0, "fig7: QPs per server pair (0 = 8)")
	warmup := fs.Duration("warmup", 0, "fig7: warm-up before measuring (0 = 20ms)")
	podsets := fs.Int("podsets", 0, "pingmesh-sweep: podsets (0 = 35, ~20K servers)")
	grep := fs.String("grep", "", "print only the registry entries whose key contains this")
	format := fs.String("format", "report", "trace: report | text | chrome")
	failOnBreach := fs.Bool("fail-on-breach", true, "health: exit nonzero when an SLO breached")
	if err := fs.Parse(args); err != nil {
		return usageError("")
	}
	if fs.NArg() > 0 {
		return usagef("unexpected argument %q", fs.Arg(0))
	}
	var bad error
	fs.Visit(func(f *flag.Flag) {
		need, ok := needs[f.Name]
		switch {
		case bad != nil:
		case ok && has&need == 0:
			bad = usagef("-%s: %s does not take it", f.Name, verb)
		case f.Name == "format" && verb != "trace":
			bad = usagef("-format: only trace takes it")
		}
	})
	switch {
	case bad != nil:
		return bad
	case *duration < 0 || *warmup < 0:
		return usagef("-duration and -warmup must not be negative")
	case *tors < 0 || *servers < 0 || *qps < 0 || *podsets < 0:
		return usagef("-tors, -servers, -qps and -podsets must not be negative")
	case *shards < 1:
		return usagef("-shards must be at least 1")
	case *shards > 1 && *audit:
		return usagef("-audit needs -shards 1: the invariant auditor follows one kernel")
	case *shards > 1 && verb == "trace":
		return usagef("trace needs -shards 1: the tracer follows one kernel")
	case *format != "report" && *format != "text" && *format != "chrome":
		return usagef("-format: unknown format %q (want report, text or chrome)", *format)
	}

	// Create every output before any kernel is built. A capture's -o is
	// its pcap; everything else prints there instead of stdout.
	w := stdout
	outPath := *out
	pcapOut := has&experiments.HasPcap != 0
	if pcapOut && outPath == "" {
		outPath = "capture.pcap"
	}
	var outFile *os.File
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return usagef("-o: %v", err)
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		outFile = f
		if !pcapOut {
			w = f
		}
	}
	stop, err := profile(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stop()

	o := experiments.Options{
		Seed: *seed, Shards: *shards, Duration: simtime.FromStd(*duration),
		Tors: *tors, Servers: *servers, QPs: *qps, Podsets: *podsets,
		Warmup: simtime.FromStd(*warmup),
	}
	switch verb {
	case "analyze":
		return analyze(arg, w)
	case "audit":
		return auditAll(w)
	case "trace":
		return trace(s, o, *format, w)
	}

	var aud experiments.Audit
	if *audit {
		o.Observe = aud.Observe
	}
	res, err := s.Run(o)
	if err != nil {
		return err
	}
	if *grep != "" {
		g, err := experiments.SnapshotResult(res.Snapshot.Filter(func(e telemetry.Entry) bool {
			return strings.Contains(e.Key, *grep)
		}))
		if err != nil {
			return err
		}
		res.Text, res.JSON = g.Text, g.JSON
	}
	if pcapOut {
		if _, err := outFile.Write(res.Pcap); err != nil {
			return err
		}
		recs, err := pcap.Read(bytes.NewReader(res.Pcap))
		if err != nil {
			return err
		}
		res.Text = fmt.Sprintf("wrote %d frames to %s (open in Wireshark: UDP/4791 = RoCEv2, 0x8808 = PFC)\n",
			len(recs), outPath)
	}
	body := res.Text
	if *jsonOut {
		body = string(res.JSON)
	}
	if _, err := io.WriteString(w, body); err != nil {
		return err
	}
	if *audit {
		n := aud.Finish()
		if err := aud.Report(w); err != nil {
			return err
		}
		if n > 0 {
			res.Failures = append(res.Failures, fmt.Sprintf("%d invariant violation(s)", n))
		}
	}
	if !*failOnBreach {
		res.Failures = nil
	}
	for _, m := range res.Failures {
		fmt.Fprintf(stderr, "roce %s: %s\n", verb, m)
	}
	if len(res.Failures) > 0 {
		return fmt.Errorf("%s missed its contract", verb)
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: roce <scenario> [flags] | roce trace <scenario> [-format report|text|chrome] | roce audit | roce analyze <file.pcap>")
	fmt.Fprintln(w, "scenarios:")
	for _, s := range experiments.Scenarios {
		fmt.Fprintf(w, "  %-17s %s\n", s.Name, s.Doc)
	}
	fmt.Fprintln(w, "run `roce <scenario> -h` for the flags")
}

// profile starts CPU profiling to cpuPath and returns a stop function
// that also writes a heap profile to memPath. Either may be empty. Both
// files are created before it returns.
func profile(cpuPath, memPath string) (stop func(), err error) {
	var cpu, mem *os.File
	for _, p := range []struct {
		path, flag string
		f          **os.File
	}{{cpuPath, "-cpuprofile", &cpu}, {memPath, "-memprofile", &mem}} {
		if p.path == "" {
			continue
		}
		if *p.f, err = os.Create(p.path); err != nil {
			return nil, usagef("%s: %v", p.flag, err)
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if mem != nil {
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(mem); err != nil {
				fmt.Fprintln(os.Stderr, "roce: -memprofile:", err)
			}
			mem.Close()
		}
	}, nil
}

// analyze prints the protocol, flow and PSN-rewind breakdown of a pcap.
func analyze(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := pcap.Read(f)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, pcap.Analyze(recs).Report())
	return err
}

// auditAll runs the gate run of every scenario that takes an observer
// with the lossless/DCQCN invariant auditor attached: one PASS line per
// clean scenario, the violations of any other.
func auditAll(w io.Writer) error {
	failed := 0
	for i := range experiments.Scenarios {
		s := &experiments.Scenarios[i]
		if s.Has&experiments.HasObserve == 0 || s.Gate == nil {
			continue
		}
		var aud experiments.Audit
		if _, err := s.RunGate(experiments.Options{Observe: aud.Observe}); err != nil {
			return err
		}
		n := aud.Finish()
		verdict := "PASS"
		if n > 0 {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%s %-10s %10d events audited on %d kernels, %d violations\n",
			verdict, s.Name, aud.Events(), aud.Kernels(), n)
		if n > 0 {
			aud.Report(w)
		}
	}
	if failed > 0 {
		return fmt.Errorf("audit: %d scenario(s) violated invariants", failed)
	}
	fmt.Fprintln(w, "roce audit: all scenarios clean")
	return nil
}

// trace replays s with the flight recorder and the flow tracer attached
// to its first run's kernel and writes the requested export: a Chrome
// trace-event JSON, the event timeline, or the per-flow hop-delay
// report followed by the run's pause-propagation analysis.
func trace(s *experiments.Scenario, o experiments.Options, format string, w io.Writer) error {
	var rec *flighttrace.Recorder
	var tracer *flighttrace.FlowTracer
	o.Observe = func(k *sim.Kernel) {
		if rec == nil {
			rec = flighttrace.NewRecorder(4096).Attach(k.Trace(), telemetry.EvAll)
			tracer = flighttrace.NewFlowTracer(0).Attach(k.Trace())
		}
	}
	res, err := s.Run(o)
	if err != nil {
		return err
	}
	switch format {
	case "chrome":
		return rec.WriteChromeTrace(w)
	case "text":
		return rec.WriteText(w)
	}
	fmt.Fprintf(w, "== %s: per-flow spans and hop delay attribution ==\n", s.Name)
	if err := tracer.WriteReport(w); err != nil || res.PFC == nil {
		return err
	}
	fmt.Fprintf(w, "== %s: pause-propagation analysis ==\n", s.Name)
	_, err = io.WriteString(w, res.PFC.Table())
	return err
}
