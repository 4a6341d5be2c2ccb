package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite docs/results from the command's output")

// pins are the recipes of docs/results/: each file is what roce prints,
// run from the repository root with these arguments. The capture also
// writes the pcap that analyze reads.
var pins = []struct {
	file string
	args []string
	pcap string // the capture's -o, compared too
}{
	{file: "livelock.txt", args: []string{"livelock", "-duration", "50ms"}},
	{file: "deadlock.txt", args: []string{"deadlock"}},
	{file: "storm.txt", args: []string{"storm"}},
	{file: "incident.txt", args: []string{"incident"}},
	{file: "report.txt", args: []string{"report"}},
	{file: "pingmesh.txt", args: []string{"pingmesh"}},
	{file: "metrics.txt", args: []string{"metrics"}},
	{file: "capture.txt", args: []string{"capture", "-duration", "1ms", "-o", "docs/results/incast.pcap"},
		pcap: "docs/results/incast.pcap"},
	{file: "analyze.txt", args: []string{"analyze", "docs/results/incast.pcap"}},
	{file: "trace-deadlock.txt", args: []string{"trace", "deadlock", "-format", "report"}},
}

// roce runs the command and returns its stdout; it fails the test on
// a nonzero exit status.
func roce(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("roce %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.Bytes()
}

// pin compares got with the file at path, or rewrites it under -update.
func pin(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted (%d vs %d bytes); rerun with -update if intentional", path, len(got), len(want))
	}
}

// TestResultsPinned regenerates every docs/results/ file the command
// makes and requires the checked-in bytes. Regenerate with `go test
// ./cmd/roce -run TestResultsPinned -update` and review the diff.
func TestResultsPinned(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(wd, "..", "..")
	chdir(t, root)
	t.Cleanup(func() { chdir(t, wd) })
	for _, p := range pins {
		t.Run(p.file, func(t *testing.T) {
			want := filepath.Join(root, "docs", "results", p.file)
			if p.pcap == "" {
				t.Parallel()
				pin(t, want, roce(t, p.args...))
				return
			}
			// The capture echoes its -o, so it runs in a scratch tree
			// with the same relative path, before the parallel pins.
			tmp := t.TempDir()
			if err := os.MkdirAll(filepath.Join(tmp, filepath.Dir(p.pcap)), 0o755); err != nil {
				t.Fatal(err)
			}
			chdir(t, tmp)
			out := roce(t, p.args...)
			chdir(t, root)
			pcap, err := os.ReadFile(filepath.Join(tmp, p.pcap))
			if err != nil {
				t.Fatal(err)
			}
			pin(t, want, out)
			pin(t, filepath.Join(root, p.pcap), pcap)
		})
	}
}

// TestExamplesPinned runs the examples whose output docs/results/
// keeps and requires the checked-in bytes; -update rewrites them too.
func TestExamplesPinned(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(wd, "..", "..")
	for _, name := range []string{"quickstart", "keyvalue"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			cmd := exec.Command("go", "run", "./examples/"+name)
			cmd.Dir, cmd.Stdout, cmd.Stderr = root, &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, stderr.String())
			}
			pin(t, filepath.Join(root, "docs", "results", "example-"+name+".txt"), stdout.Bytes())
		})
	}
}

func chdir(t *testing.T, dir string) {
	t.Helper()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
}

// TestBadArgs: each bad command line exits 2 with a message naming
// what is wrong, before any kernel is built.
func TestBadArgs(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "x")
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "usage"},
		{[]string{"nope"}, `unknown scenario "nope"`},
		{[]string{"livelock", "-duration", "-5ms"}, "-duration"},
		{[]string{"deadlock", "-shards", "0"}, "-shards"},
		{[]string{"deadlock", "-shards", "-3"}, "-shards"},
		{[]string{"storm", "-audit", "-shards", "2"}, "-audit"},
		{[]string{"storm", "-json"}, "-json"},
		{[]string{"fig6", "-shards", "2"}, "-shards"},
		{[]string{"report", "-seed", "3"}, "-seed"},
		{[]string{"metrics", "-format", "text"}, "-format"},
		{[]string{"trace"}, "trace needs"},
		{[]string{"trace", "nope"}, `"nope"`},
		{[]string{"trace", "chaos"}, `"chaos"`},
		{[]string{"trace", "deadlock", "-format", "nope"}, "-format"},
		{[]string{"trace", "deadlock", "-shards", "2"}, "-shards 1"},
		{[]string{"capture", "-o", missing}, "-o"},
		{[]string{"livelock", "-o", missing}, "-o"},
		{[]string{"metrics", "-cpuprofile", missing}, "-cpuprofile"},
		{[]string{"metrics", "-memprofile", missing}, "-memprofile"},
		{[]string{"audit", "-seed", "2"}, "-seed"},
		{[]string{"livelock", "extra"}, "unexpected argument"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), c.want) || stdout.Len() != 0 {
			t.Errorf("roce %s: exit %d, stdout %q, stderr %q; want exit 2 naming %q",
				strings.Join(c.args, " "), code, stdout.String(), stderr.String(), c.want)
		}
	}
}

// TestChromeTraceByteIdentical runs the same trace twice and requires
// byte-identical Chrome trace JSON — the determinism the golden-trace
// workflow depends on.
func TestChromeTraceByteIdentical(t *testing.T) {
	args := []string{"trace", "deadlock", "-duration", "20ms", "-format", "chrome"}
	a, b := roce(t, args...), roce(t, args...)
	if !bytes.Equal(a, b) {
		t.Fatal("chrome trace differs across identical same-seed runs")
	}
	for _, want := range []string{`"traceEvents"`, `"process_name"`, `"ph": "X"`} {
		if !bytes.Contains(a, []byte(want)) {
			t.Fatalf("chrome trace missing %q", want)
		}
	}
}

func TestReportFormat(t *testing.T) {
	out := string(roce(t, "trace", "deadlock", "-duration", "20ms"))
	for _, want := range []string{"root-cause ranking", "pause time per", "hop delay attribution"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
