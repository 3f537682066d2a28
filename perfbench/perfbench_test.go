package main

import (
	"bytes"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted input
		}
		return xs
	}
	cases := []struct {
		n        int
		pct, val float64
	}{
		{5, 100, 5},         // too few for any ladder percentile: the maximum
		{19, 100, 19},       // p50 would leave only 9 beyond
		{20, 50, 10},        // rank 10, 10 beyond
		{40, 75, 30},        // rank 30, 10 beyond
		{99, 75, 75},        // p90 rank 90 leaves 9
		{100, 90, 90},       // rank 90, 10 beyond
		{200, 95, 190},      // rank 190, 10 beyond
		{999, 95, 950},      // p99 rank 990 leaves 9
		{1000, 99, 990},     // rank 990, 10 beyond
		{10000, 99.9, 9990}, // rank 9990, 10 beyond
	}
	for _, c := range cases {
		pct, val := tailPercentile(seq(c.n), 10)
		if pct != c.pct || val != c.val {
			t.Errorf("n=%d: got p%v = %v, want p%v = %v", c.n, pct, val, c.pct, c.val)
		}
		if pct < 100 {
			if beyond := c.n - nearestRank(pct, c.n); beyond < 10 {
				t.Errorf("n=%d: p%v leaves %d beyond", c.n, pct, beyond)
			}
		}
	}
	if pct, val := tailPercentile(nil, 10); pct != 0 || val != 0 {
		t.Errorf("empty: got p%v = %v", pct, val)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

const sampleReference = `== table2 (Table II) ==
Table II — baseline
a  b

[table2 completed in 0s]

== table3 (Table III) ==
Table III — characteristics
bench  baseCPI
black  6.443

[table3 completed in 2.118s]

== fig8 (Figure 8) ==
x

[fig8 completed with failed runs in 1s]

`

func TestReferenceSection(t *testing.T) {
	got, ok := referenceSection(sampleReference, "table3")
	want := "== table3 (Table III) ==\nTable III — characteristics\nbench  baseCPI\nblack  6.443\n\n\n"
	if !ok || got != want {
		t.Fatalf("table3 section = %q, %v; want %q", got, ok, want)
	}
	// The footer is dropped whatever its timing or status.
	if got, _ := referenceSection(sampleReference, "fig8"); strings.Contains(got, "completed") {
		t.Errorf("fig8 section keeps its footer: %q", got)
	}
	// A prefix of another id does not match.
	if _, ok := referenceSection(sampleReference, "table"); ok {
		t.Error("found a section for id \"table\"")
	}
	if _, ok := referenceSection(sampleReference, "fig11"); ok {
		t.Error("found a section for an absent id")
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"mtprefetch/internal/dram.(*Memory).Enqueue", "mtprefetch/internal/core.(*Simulator).Run"}, "dram"},
		{[]string{"runtime.mallocgc", "mtprefetch/internal/smcore.(*Core).Step", "main.run"}, "smcore"},
		{[]string{"mtprefetch/internal/addrmap.Map[...].Get"}, "addrmap"},
		{[]string{"mtprefetch/internal/prefetch.(*table[...]).get"}, "prefetch"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketRuntime},
		// The benchmark's obs writers run inside the simulator's calls.
		{[]string{"runtime.growslice", "main.(*streamWriter).Write", "mtprefetch/internal/obs.(*Sink).Finish"}, bucketBench},
		{[]string{"syscall.Syscall", "os.(*File).Write", "main.run"}, bucketBench},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, bucketOther},
		{nil, bucketOther},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestAttributionConserves checks that every sample lands in exactly one
// bucket, so the shares sum to 1.
func TestAttributionConserves(t *testing.T) {
	stacks := []stack{
		{[]string{"mtprefetch/internal/dram.(*Memory).Enqueue"}, 7},
		{[]string{"runtime.memmove", "mtprefetch/internal/ring.(*Ring).Push", "mtprefetch/internal/dram.x"}, 3},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 2},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "mtprefetch/internal/core.New"}, 1},
		{[]string{"main.run"}, 4},
		{[]string{"time.Now"}, 2},
		{nil, 1},
	}
	a := attribute(stacks)
	if a.total != 20 {
		t.Fatalf("total = %d, want 20", a.total)
	}
	var sum int64
	var shares float64
	for _, n := range a.names() {
		sum += a.layers[n]
		shares += a.share(n)
	}
	if sum != a.total || math.Abs(shares-1) > 1e-12 {
		t.Errorf("buckets sum to %d (shares %v), want %d (1)", sum, shares, a.total)
	}
	want := map[string]int64{"dram": 7, "ring": 3, bucketRuntime: 2, "core": 1, bucketBench: 4, bucketOther: 3}
	for n, v := range want {
		if a.layers[n] != v {
			t.Errorf("%s = %d, want %d", n, a.layers[n], v)
		}
	}
	if a.gc != 3 {
		t.Errorf("gc = %d, want 3", a.gc)
	}
	if empty := attribute(nil); empty.share("dram") != 0 {
		t.Error("empty profile has a non-zero share")
	}
}

// TestAttributionSkipsReference checks that the reference kernel's
// samples, the benchmark's clock, count in no bucket and not in the total.
func TestAttributionSkipsReference(t *testing.T) {
	a := attribute([]stack{
		{[]string{"mtprefetch/internal/dram.(*Memory).Enqueue"}, 3},
		{[]string{"main.refKernel", "main.(*refClock).tick", "main.(*serialWorkload).pass"}, 5},
		{[]string{"main.(*refClock).tick", "main.(*refClock).sampleEvery.func1"}, 2},
		{[]string{"main.(*streamWriter).Write"}, 1},
	})
	if a.total != 4 || a.layers["dram"] != 3 || a.layers[bucketBench] != 1 {
		t.Errorf("attribution = %+v, want total 4: dram 3, bench 1", a)
	}
}

// TestNormalize checks that a pass measured while the reference unit
// took twice its nominal time reports every host time halved.
func TestNormalize(t *testing.T) {
	p := &passResult{
		setup: 4 * time.Millisecond, newTime: 2 * time.Millisecond, wall: 2 * time.Second,
		refUnit: 2 * refNominal,
		runs:    []simRun{{seconds: 0.5}, {seconds: 1.5}},
		expSecs: map[string]float64{"fig13": 2},
		streams: map[string]*streamWriter{"spans": {busy: 100 * time.Millisecond}},
	}
	p.normalize()
	if p.rawWall != 2*time.Second {
		t.Errorf("rawWall = %v, want 2s", p.rawWall)
	}
	if p.setup != 2*time.Millisecond || p.newTime != time.Millisecond || p.wall != time.Second {
		t.Errorf("setup, new, wall = %v, %v, %v; want 2ms, 1ms, 1s", p.setup, p.newTime, p.wall)
	}
	if p.runs[0].seconds != 0.25 || p.runs[1].seconds != 0.75 || p.expSecs["fig13"] != 1 {
		t.Errorf("runs %v, experiment %v; want 0.25, 0.75 and 1", p.runs, p.expSecs)
	}
	if b := p.streams["spans"].busy; b != 50*time.Millisecond {
		t.Errorf("stream busy = %v, want 50ms", b)
	}
}

// TestRefClockSamplesInBackground checks that a background clock times
// one unit at once, more as time passes, and none once stopped.
func TestRefClockSamplesInBackground(t *testing.T) {
	c := newRefClock(16)
	c.sampleEvery(time.Hour)()
	if len(c.units) != 1 || c.unit() <= 0 {
		t.Fatalf("after an immediate stop: units %v, want one", c.units)
	}
	c = newRefClock(16)
	stop := c.sampleEvery(time.Millisecond)
	time.Sleep(50 * time.Millisecond)
	stop()
	n := len(c.units)
	time.Sleep(20 * time.Millisecond)
	if n == 0 || len(c.units) != n {
		t.Errorf("units %d at stop, %d after", n, len(c.units))
	}
}

const sampleTraces = `File: perfbench
Type: samples
Time: 2026-01-01 00:00:00 UTC
Duration: 2s, Total samples = 12 
-----------+-------------------------------------------------------
         7   mtprefetch/internal/dram.(*Memory).Enqueue
             mtprefetch/internal/core.(*Simulator).Run
             main.(*serialWorkload).pass
-----------+-------------------------------------------------------
       key:  value
         5   mtprefetch/internal/ring.(*Buffer[...]).PushBack (inline)
             mtprefetch/internal/dram.(*Memory).Enqueue
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	stacks, err := parseTraces(sampleTraces)
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{[]string{"mtprefetch/internal/dram.(*Memory).Enqueue", "mtprefetch/internal/core.(*Simulator).Run", "main.(*serialWorkload).pass"}, 7},
		{[]string{"mtprefetch/internal/ring.(*Buffer[...]).PushBack", "mtprefetch/internal/dram.(*Memory).Enqueue"}, 5},
	}
	if !reflect.DeepEqual(stacks, want) {
		t.Errorf("stacks = %q, want %q", stacks, want)
	}
	if _, err := parseTraces(strings.Replace(sampleTraces, "= 12", "= 13", 1)); err == nil {
		t.Error("a sample total that does not match the counts parsed without error")
	}
	if _, err := parseTraces("not traces"); err == nil {
		t.Error("garbage parsed without error")
	}
}

//go:noinline
func spin(until time.Time) int {
	n := 0
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

var sink int

// TestProfileStacks reads two real CPU profiles through go tool pprof
// and finds the test's own busy function in them, with every sample
// conserved through attribution.
func TestProfileStacks(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command:", err)
	}
	var profiles [][]byte
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Skip("CPU profiling unavailable:", err)
		}
		sink = spin(time.Now().Add(200 * time.Millisecond))
		pprof.StopCPUProfile()
		profiles = append(profiles, buf.Bytes())
	}
	dir := t.TempDir()
	stacks, err := profileStacks(dir, profiles)
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range stacks {
		total += s.count
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spin") {
				inSpin += s.count
				break
			}
		}
	}
	if total == 0 {
		t.Fatal("no samples read")
	}
	if inSpin*2 < total {
		t.Errorf("only %d of %d samples in spin", inSpin, total)
	}
	if a := attribute(stacks); a.total != total {
		t.Errorf("attribution total %d, want %d", a.total, total)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("profiles left behind: %v", entries)
	}
}

func TestStreamDigestIgnoresRecordOrder(t *testing.T) {
	var a, b streamWriter
	a.Write([]byte("r1\nr2\n"))
	a.Write([]byte("r3\n"))
	b.Write([]byte("r3\nr"))
	b.Write([]byte("1\nr2\n"))
	if a.digest() != b.digest() {
		t.Errorf("digests differ: %+v vs %+v", a.digest(), b.digest())
	}
	var c streamWriter
	c.Write([]byte("r1\nr2\nr4\n"))
	if c.digest().Digest == a.digest().Digest {
		t.Error("different records share a digest")
	}
	if d := a.digest(); d.Records != 3 || d.Bytes != 9 {
		t.Errorf("digest = %+v, want 3 records, 9 bytes", d)
	}
	// The inline hash is FNV-1a, so committed digests stay comparable.
	ref := fnv.New64a()
	ref.Write([]byte("r1"))
	if a.hashes[0] != ref.Sum64() {
		t.Errorf("record hash %x, want FNV-1a %x", a.hashes[0], ref.Sum64())
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# TYPE mtpref_runs gauge
mtpref_runs{status="done"} 2
sim_dram_rejects{run="base/black",core="-1",component="dram"} 1.2e+07
sim_smcore_cpi_issued{run="base/black",core="0",component="smcore"} 30
sim_smcore_cpi_idle{run="base/black",core="0",component="smcore"} 10
sim_smcore_cpi_issued{run="base/black",core="1",component="smcore"} 40
`
	snaps, err := parseMetrics(text)
	if err != nil {
		t.Fatal(err)
	}
	s := snaps["base/black"]
	if s == nil || len(snaps) != 1 {
		t.Fatalf("runs = %v", snaps)
	}
	if s.counts["dram_rejects"] != 1.2e7 || s.counts["smcore_cpi_issued"] != 70 {
		t.Errorf("counts = %v", s.counts)
	}
	if got := cpiCycles(s.counts, s.cores); got != 39 { // 40 executed: cycles 0..39
		t.Errorf("cycles = %d, want 39", got)
	}
}
