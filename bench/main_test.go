package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// toyRun runs every episode of a workload at toy size in the test
// process.
func toyRun(t *testing.T, b *bench, shards int, traceDir string) (*runResult, string) {
	t.Helper()
	r, err := measure(b, opts{shards: shards, toy: true, traceDir: traceDir, run: runEpisode})
	if err != nil {
		t.Fatalf("%s: %v", b.name, err)
	}
	var out bytes.Buffer
	r.print(&out)
	if !r.correct() {
		t.Errorf("%s: checks failed:\n%s", b.name, out.String())
	}
	return r, out.String()
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFile checks BENCHMARK.json against the metrics and
// workloads this program reports.
func TestBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		b, err := benchByName(w.Name)
		if err != nil {
			t.Error(err)
		} else if w.Why != b.why {
			t.Errorf("%s: BENCHMARK.json why %q, program %q", w.Name, w.Why, b.why)
		}
	}
	if strings.Join(names, ",") != strings.Join(benchNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, benchNames())
	}
	same := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
			if !valid.MatchString(got[i].name) {
				t.Errorf("bad metric name %q", got[i].name)
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayer)
	for _, n := range names {
		if !valid.MatchString(n) {
			t.Errorf("bad workload name %q", n)
		}
	}
}

// TestSmoke runs every workload at toy size: all checks pass, every
// end-to-end metric is printed with its unit, and simulated results
// repeat exactly across runs and, for the sharded clos fabric, across
// shard counts.
func TestSmoke(t *testing.T) {
	for _, b := range benches {
		r1, out := toyRun(t, b, 0, "")
		for _, m := range endToEnd {
			if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.name) + ` +\S+ ` + regexp.QuoteMeta(m.unit) + `$`).MatchString(out) {
				t.Errorf("%s: %s not printed with unit %s", b.name, m.name, m.unit)
			}
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var result struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
			t.Fatalf("%s: last line is not the result object: %v", b.name, err)
		}
		if !result.Correct || result.Attempted < 1 || result.Failed != 0 || len(result.Metrics) != len(endToEnd) {
			t.Errorf("%s: result %+v", b.name, result)
		}
		r2, _ := toyRun(t, b, 0, "")
		if r1.digest != r2.digest {
			t.Errorf("%s: sim_digest %s then %s", b.name, r1.digest, r2.digest)
		}
		if b.shards > 1 {
			r3, _ := toyRun(t, b, 1, "")
			if r1.digest != r3.digest {
				t.Errorf("%s: sim_digest %s at %d shards, %s at 1", b.name, r1.digest, b.shards, r3.digest)
			}
		}
	}
}

// TestTracedRun checks the traced mode on one toy workload: every
// per-layer metric is reported with its unit and the run profile's
// layer shares sum to 100%.
func TestTracedRun(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool pprof not available")
	}
	b, _ := benchByName("rack-incast-pfc")
	dir := t.TempDir()
	r, out := toyRun(t, b, 0, dir)
	for _, m := range perLayer {
		if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.name) + ` +\S+ ` + regexp.QuoteMeta(m.unit) + `$`).MatchString(out) {
			t.Errorf("%s not printed with unit %s", m.name, m.unit)
		}
	}
	sum := r.layer["go.gc_cpu"] + r.layer["go.other_cpu"]
	for _, m := range perLayer {
		if strings.HasSuffix(m.name, ".cpu") {
			sum += r.layer[m.name]
		}
	}
	if !strings.Contains(r.table, "run    total      100.00%") {
		t.Errorf("run shares do not total 100%%:\n%s", r.table)
	}
	if sum > 100.5 {
		t.Errorf("per-layer run shares sum to %.2f%% (> 100)", sum)
	}
	if err := writeTrace(dir, []*runResult{r}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"spans.json", "layers.txt"} {
		if _, err := os.Stat(dir + "/" + f); err != nil {
			t.Error(err)
		}
	}
}
