package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"rocesim/internal/core"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
)

// episodeReq asks for one episode: build the workload, run it for its
// simulated time, read the results. ProfileDir, when set, turns on the
// traced variant: CPU profiles of set-up and of the run are written
// there under Prefix.
type episodeReq struct {
	Bench      string `json:"bench"`
	Seed       int64  `json:"seed"`
	Shards     int    `json:"shards"`
	Toy        bool   `json:"toy"`
	ProfileDir string `json:"profile_dir,omitempty"`
	Prefix     string `json:"prefix,omitempty"`
}

// span is one timed call from the benchmark into a layer. Times are
// microseconds since the episode started.
type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) seconds() float64 { return (s.EndUS - s.StartUS) / 1e6 }

// runSlices is how many equal simulated slices the run is timed in.
const runSlices = 20

// episodeOut is everything an episode measured. Counts are the
// deterministic per-layer counts; Host holds host-side measurements.
type episodeOut struct {
	Digest    string             `json:"sim_digest"`
	SimUS     float64            `json:"sim_us"`
	Slices    []float64          `json:"slices_s"` // host seconds of each run slice
	Checks    []check            `json:"checks"`
	Counts    map[string]float64 `json:"counts"`
	Host      map[string]float64 `json:"host"`
	Spans     []span             `json:"spans"`
	SetupProf string             `json:"setup_profile,omitempty"`
	RunProf   string             `json:"run_profile,omitempty"`
}

// runEpisode executes one episode in the calling process.
func runEpisode(req episodeReq) (*episodeOut, error) {
	b, err := benchByName(req.Bench)
	if err != nil {
		return nil, err
	}
	p := b.full
	if req.Toy {
		p = b.toy
	}
	shards := b.shards
	if req.Shards > 0 {
		shards = req.Shards
	}
	out := &episodeOut{}
	origin := time.Now()
	timed := func(name, parent string, fn func()) span {
		s := span{Name: name, Parent: parent, StartUS: us(origin)}
		fn()
		s.EndUS = us(origin)
		out.Spans = append(out.Spans, s)
		return s
	}
	var prof profile
	if req.ProfileDir != "" {
		prof.path = filepath.Join(req.ProfileDir, req.Prefix)
	}

	if err := prof.start("setup"); err != nil {
		return nil, err
	}
	setupStart := us(origin)
	k := sim.NewRoot(req.Seed, shards)
	cfg := core.DefaultConfig(b.spec(p))
	cfg.Transport = b.mode
	var d *core.Deployment
	var t *traffic
	deploy := timed("setup.deploy", "episode", func() { d, err = core.New(k, cfg) })
	if err != nil {
		prof.stop()
		return nil, err
	}
	connect := timed("setup.connect", "episode", func() { t = b.start(d, p) })
	// Set-up ends with a full collection of its garbage, so every
	// episode's run starts from the same heap; otherwise set-up's GC debt
	// is paid at varying points of the run.
	collect := timed("setup.gc", "episode", runtime.GC)
	out.SetupProf = prof.stop()
	setupS := (collect.EndUS - setupStart) / 1e6

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	setupAlloc := ms.TotalAlloc

	if err := prof.start("run"); err != nil {
		return nil, err
	}
	run := timed("run", "episode", func() {
		for i := 1; i <= runSlices; i++ {
			t0 := time.Now()
			k.RunUntil(simtime.Time(p.simTime * simtime.Duration(i) / runSlices))
			out.Slices = append(out.Slices, time.Since(t0).Seconds())
		}
	})
	out.RunProf = prof.stop()

	runtime.ReadMemStats(&ms)
	runAlloc, gcCycles := ms.TotalAlloc-setupAlloc, ms.NumGC

	// Pingmesh folds per-shard RTTs into its published histograms, so
	// results are folded before the registry is snapshotted.
	var res results
	fold := timed("report.fold", "episode", func() { res = t.fold() })
	var snap *telemetry.Snapshot
	snapshot := timed("report.snapshot", "episode", func() {
		snap = k.Metrics().Snapshot()
		h := fnv.New64a()
		h.Write([]byte(snap.Text()))
		out.Digest = fmt.Sprintf("%016x", h.Sum64())
	})
	out.Counts = layerCounts(d, snap, res)
	out.Checks = t.checks(b.mode.IRN(), res, out.Counts)
	out.SimUS = float64(p.simTime) / float64(simtime.Microsecond)

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	events := out.Counts["sim.events"]
	out.Host = map[string]float64{
		"setup_s":                  setupS,
		"peak_rss_mb":              rss,
		"sim.ns_per_event":         run.seconds() * 1e9 / events,
		"setup.deploy_s":           deploy.seconds(),
		"setup.connect_s":          connect.seconds(),
		"setup.gc_s":               collect.seconds(),
		"telemetry.snapshot_s":     snapshot.seconds(),
		"report.fold_s":            fold.seconds(),
		"go.alloc_mb":              float64(setupAlloc) / (1 << 20),
		"go.alloc_bytes_per_event": float64(runAlloc) / events,
		"go.gc_cycles":             float64(gcCycles),
	}
	out.Spans = append(out.Spans, span{Name: "episode", StartUS: 0, EndUS: snapshot.EndUS})
	return out, nil
}

func us(origin time.Time) float64 { return float64(time.Since(origin).Nanoseconds()) / 1e3 }

// profile writes one CPU profile per phase when path is set.
type profile struct {
	path string
	f    *os.File
}

func (p *profile) start(phase string) error {
	if p.path == "" {
		return nil
	}
	f, err := os.Create(p.path + "-" + phase + ".pprof")
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("start cpu profile: %w", err)
	}
	p.f = f
	return nil
}

// stop ends the phase's profile and returns its file name ("" when
// profiling is off).
func (p *profile) stop() string {
	if p.f == nil {
		return ""
	}
	pprof.StopCPUProfile()
	name := p.f.Name()
	p.f.Close()
	p.f = nil
	return name
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[2] != "kB" {
			return 0, fmt.Errorf("peak rss: unexpected line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
