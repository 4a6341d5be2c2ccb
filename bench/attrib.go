package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// Layer names outside this repo's modules.
const (
	layerGC    = "go.gc"    // background GC work with no simulator frame
	layerOther = "go.other" // everything else with no simulator frame
	layerBench = "bench"    // the benchmark's own generator and driver code
)

// gcRoots are the runtime's background GC goroutines.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf charges one sampled stack, leaf first, to the innermost frame
// that belongs to a rocesim/internal module (or to the benchmark), so
// runtime helpers such as map hashing and mallocgc count toward the
// module that called them.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "rocesim/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(f, "main.") {
			return layerBench
		}
	}
	for _, f := range frames {
		for _, root := range gcRoots {
			if strings.HasPrefix(f, root) {
				return layerGC
			}
		}
	}
	return layerOther
}

// attribute parses the output of `go tool pprof -traces` for a CPU
// profile and returns the sampled time charged to each layer. pprof
// prints every sample between separator lines, one frame per line as
// "%10s   %s", leaf first, with the sample's value in the first line's
// left column; label lines ("%10s:  %s") may precede the frames.
func attribute(text string) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration)
	var value time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			out[layerOf(frames)] += value
		}
		frames, value = frames[:0], 0
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces || len(line) <= 13 || line[10:13] != "   " {
			continue // header or label line
		}
		if v := strings.TrimSpace(line[:10]); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value in %q", line)
			}
			value = d
		}
		frames = append(frames, strings.TrimSuffix(line[13:], " (inline)"))
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read pprof traces: %w", err)
	}
	return out, nil
}

// profileLayers runs `go tool pprof -traces` on a CPU profile and
// attributes its samples.
func profileLayers(path string) (map[string]time.Duration, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("attribute %s: %w", path, err)
	}
	text, err := exec.Command(goBin, "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return attribute(string(text))
}
