package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file attributes the samples of CPU profiles to simulator layers.
// runtime/pprof writes the profiles; `go tool pprof -traces`, from the
// toolchain that builds the benchmark, prints their samples as text
// stacks, which parseTraces reads.

// stack is one profile sample: its frames innermost first, and its
// sample count.
type stack struct {
	frames []string
	count  int64
}

// profileDir holds the profiles while go tool pprof reads them. It is
// the build directory run.sh creates, inside the checkout.
const profileDir = ".bench_build"

// profileStacks merges runtime/pprof CPU profiles into one list of
// sample stacks, writing them to a temporary directory under parent for
// go tool pprof to read.
func profileStacks(parent string, profiles [][]byte) ([]stack, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "profiles-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := []string{"tool", "pprof", "-traces", "-sample_index=samples"}
	for i, prof := range profiles {
		path := filepath.Join(dir, strconv.Itoa(i)+".pprof")
		if err := os.WriteFile(path, prof, 0o644); err != nil {
			return nil, err
		}
		args = append(args, path)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(stdout.String())
}

var totalSamples = regexp.MustCompile(`Total samples = (\d+)`)

const separator = "-----------+"

// parseTraces reads `go tool pprof -traces -sample_index=samples`
// output: a header, then one block per sample between separator lines.
// A block's first frame line carries the sample count in its first ten
// columns; a colon in the eleventh column marks a sample-label line.
// The counts must add up to the header's total.
func parseTraces(text string) ([]stack, error) {
	i := strings.Index(text, "\n"+separator)
	if i < 0 {
		return nil, fmt.Errorf("pprof traces: no separator line in %q", text)
	}
	header, body := text[:i], text[i+1:]
	m := totalSamples.FindStringSubmatch(header)
	if m == nil {
		return nil, fmt.Errorf("pprof traces: no sample total in %q", header)
	}
	want, _ := strconv.ParseInt(m[1], 10, 64)
	var out []stack
	var sum int64
	for _, line := range strings.Split(body, "\n") {
		if len(line) < 13 || strings.HasPrefix(line, separator) || line[10] == ':' {
			continue
		}
		if c := strings.TrimSpace(line[:10]); c != "" {
			n, err := strconv.ParseInt(c, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			out = append(out, stack{count: n})
			sum += n
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("pprof traces: frame before any sample: %q", line)
		}
		st := &out[len(out)-1]
		st.frames = append(st.frames, strings.TrimSuffix(strings.TrimSpace(line[10:]), " (inline)"))
	}
	if sum != want {
		return nil, fmt.Errorf("pprof traces: samples sum to %d, header says %d", sum, want)
	}
	return out, nil
}

// internalPrefix marks the simulator's layers: each frame under it
// belongs to the internal/<pkg> named by its next path element.
const internalPrefix = "mtprefetch/internal/"

// benchPrefix marks the benchmark's own frames (package main).
const benchPrefix = "main."

// Buckets for samples with no simulator frame innermost.
const (
	bucketBench   = "bench"
	bucketRuntime = "runtime"
	bucketOther   = "other"
)

// layerOf names the bucket a sample belongs to: the internal/<pkg> of
// its innermost simulator frame, or bench when a benchmark frame is
// innermost (its obs writers run inside the simulator's calls), else
// runtime when any frame is in the Go runtime (GC workers, scheduler),
// else other.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(f, benchPrefix) {
			return bucketBench
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.") {
			return bucketRuntime
		}
	}
	return bucketOther
}

// isGC reports whether a sample is garbage-collector work: background
// marking and sweeping, or a mutator's allocation assist.
func isGC(frames []string) bool {
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.gcBgMarkWorker"),
			strings.HasPrefix(f, "runtime.gcAssistAlloc"),
			strings.HasPrefix(f, "runtime.bgsweep"),
			strings.HasPrefix(f, "runtime.bgscavenge"),
			f == "runtime.GC":
			return true
		}
	}
	return false
}

// attribution is the per-layer split of a profile's samples.
type attribution struct {
	total  int64
	layers map[string]int64
	gc     int64
}

// attribute assigns every sample to exactly one layer bucket, so the
// buckets always sum to total. Reference-kernel samples are not counted.
func attribute(stacks []stack) attribution {
	a := attribution{layers: map[string]int64{}}
	for _, s := range stacks {
		if isRefSample(s.frames) {
			continue
		}
		a.total += s.count
		a.layers[layerOf(s.frames)] += s.count
		if isGC(s.frames) {
			a.gc += s.count
		}
	}
	return a
}

// share is a bucket's fraction of all samples (0 for an empty profile).
func (a attribution) share(layer string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.layers[layer]) / float64(a.total)
}

// names lists the populated buckets, sorted.
func (a attribution) names() []string {
	out := make([]string, 0, len(a.layers))
	for n := range a.layers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
