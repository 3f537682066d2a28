package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"mtprefetch/internal/config"
	"mtprefetch/internal/core"
	"mtprefetch/internal/harness"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/stats"
	"mtprefetch/internal/swpref"
	"mtprefetch/internal/workload"
)

// simRun is one simulation as the benchmark saw it.
type simRun struct {
	key     string
	seconds float64            // host seconds
	counts  map[string]float64 // registry snapshot summed over cores, Prometheus-style names
	cycles  uint64             // simulated cycles; 0 when the pass cannot see them
	result  *core.Result       // serial workloads only
	latency stats.Histogram    // serial workloads only: demand latencies, merged over cores
	failed  bool
}

// passResult is one execution of a workload.
type passResult struct {
	setup    time.Duration // workload.Load, spec scaling and core.New
	newTime  time.Duration // the core.New share of setup
	wall     time.Duration // the program's calls in the timed section
	rawWall  time.Duration // wall before normalize
	refUnit  float64       // median reference-unit seconds (refclock.go)
	peakRSS  float64       // MB over the whole pass; 0 when unmeasured
	runs     []simRun
	expSecs  map[string]float64       // harness: seconds per experiment
	streams  map[string]*streamWriter // observed: the obs streams
	problems []string                 // failed output checks
}

func (p *passResult) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// failedRuns counts the pass's simulations that failed or whose output
// was wrong.
func (p *passResult) failedRuns() int {
	n := 0
	for _, r := range p.runs {
		if r.failed {
			n++
		}
	}
	return n
}

// workloadRunner executes one pass of a workload. The rng permutes run
// order (serial workloads) or experiment order (harness workloads); the
// outputs must not depend on it. census attaches cycle accounting
// (obs CPI stacks) so the pass's registries carry the CPI buckets and,
// through them, every run's simulated cycle count. pr brackets the timed
// section.
type workloadRunner interface {
	pass(rng *rand.Rand, census bool, pr *probe) (*passResult, error)
	// golden derives the workload's golden outputs from a census pass.
	golden(census *passResult) *golden
}

// probe measures exactly the timed section of a pass: it runs the CPU
// profiler over it when profile is set, and counts its allocations
// otherwise.
type probe struct {
	profile       *bytes.Buffer
	mallocs, size uint64
	m0            runtime.MemStats
}

func (pr *probe) begin() error {
	if pr.profile != nil {
		return pprof.StartCPUProfile(pr.profile)
	}
	runtime.ReadMemStats(&pr.m0)
	return nil
}

func (pr *probe) end() {
	if pr.profile != nil {
		pprof.StopCPUProfile()
		return
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	pr.mallocs, pr.size = m1.Mallocs-pr.m0.Mallocs, m1.TotalAlloc-pr.m0.TotalAlloc
}

// env is what every workload reads besides the simulator: the results
// reference and the workload's golden outputs.
type env struct {
	reference string
	gold      *golden
}

// golden holds a workload's committed expected outputs.
type golden struct {
	// Results are the serial workloads' core.Result values, by run key.
	Results map[string]*core.Result `json:"results,omitempty"`
	// Counts are registry sums by name: per run key for serial
	// workloads, per experiment for harness workloads.
	Counts map[string]map[string]float64 `json:"counts"`
	// Cycles are the harness workloads' simulated cycles by
	// "<experiment>/<run key>", which only a census pass can see.
	Cycles map[string]uint64 `json:"cycles,omitempty"`
	// Streams are the observed workload's obs stream digests.
	Streams map[string]streamDigest `json:"streams,omitempty"`
}

const waves = 2 // the harness's default scale

// scaled shrinks a benchmark the way the harness does at its default
// scale: to about waves full-occupancy waves on the 14-core baseline.
func scaled(s *workload.Spec) *workload.Spec {
	target := 14 * s.MaxBlocksPerCore * waves
	f := (s.Blocks + target/2) / target
	if f < 1 {
		f = 1
	}
	return s.Scaled(f)
}

// machine is the harness's baseline machine (Table II with the scaled
// 10k-cycle throttle period).
func machine() *config.Config {
	cfg := config.Baseline()
	cfg.ThrottlePeriod = 10_000
	return cfg
}

// simConfig is one prefetching configuration of a serial workload.
type simConfig struct {
	name    string
	prepare func(o *core.Options)
}

var serialConfigs = []simConfig{
	{"base", func(*core.Options) {}},
	{"mthwp+T", func(o *core.Options) {
		o.Hardware = func() prefetch.Prefetcher {
			return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true, Distance: 1})
		}
		o.Throttle = true
	}},
	{"mtswp+T", func(o *core.Options) {
		o.Software = swpref.MTSWP
		o.Throttle = true
	}},
}

// serialWorkload runs core simulations one at a time, each benchmark
// as baseline, as MT-HWP(GS+IP) with throttling, and as MT-SWP with
// throttling (the Fig. 11 transform, applied inside core.New).
type serialWorkload struct {
	env
	benches []string
}

func (w *serialWorkload) pass(rng *rand.Rand, census bool, pr *probe) (*passResult, error) {
	type job struct {
		key string
		sim *core.Simulator
	}
	p := &passResult{}
	var jobs []job
	for _, b := range w.benches {
		for _, c := range serialConfigs {
			jobs = append(jobs, job{key: c.name + "/" + b})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	start := time.Now()
	if _, err := workload.Load(); err != nil {
		return nil, err
	}
	for i := range jobs {
		cfgName, bench, _ := strings.Cut(jobs[i].key, "/")
		spec := workload.ByName(bench)
		if spec == nil {
			return nil, fmt.Errorf("unknown benchmark %q", bench)
		}
		o := core.Options{Config: machine(), Workload: scaled(spec)}
		for _, c := range serialConfigs {
			if c.name == cfgName {
				c.prepare(&o)
			}
		}
		if census {
			o.Obs = obs.New(obs.Config{CPIStack: true})
		}
		t := time.Now()
		sim, err := core.New(o)
		p.newTime += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", jobs[i].key, err)
		}
		jobs[i].sim = sim
	}
	p.setup = time.Since(start)

	results := make([]*core.Result, len(jobs))
	errs := make([]error, len(jobs))
	secs := make([]float64, len(jobs))
	clk := newRefClock(len(jobs) + 1)
	if err := pr.begin(); err != nil {
		return nil, err
	}
	for i, j := range jobs {
		clk.tick()
		t := time.Now()
		results[i], errs[i] = j.sim.Run()
		secs[i] = time.Since(t).Seconds()
		p.wall += seconds(secs[i])
	}
	clk.tick()
	pr.end()
	p.refUnit = clk.unit()

	for i, j := range jobs {
		r := simRun{key: j.key, seconds: secs[i], failed: errs[i] != nil}
		if errs[i] != nil {
			p.problem("%s: %v", j.key, errs[i])
		} else {
			r.cycles, r.result = results[i].Cycles, results[i]
			r.counts = snapshotCounts(j.sim.Registry().Snapshot())
			r.latency = j.sim.Registry().MergedHistogram("smcore.demand_latency")
			w.check(p, &r)
		}
		p.runs = append(p.runs, r)
	}
	sort.Slice(p.runs, func(i, j int) bool { return p.runs[i].key < p.runs[j].key })
	return p, nil
}

// check compares one run's result and registry with the golden.
func (w *serialWorkload) check(p *passResult, r *simRun) {
	if w.gold == nil {
		return
	}
	if !sameJSON(r.result, w.gold.Results[r.key]) {
		r.failed = true
		p.problem("%s: result differs from golden", r.key)
	}
	if d := diffCounts(r.counts, w.gold.Counts[r.key]); d != "" {
		r.failed = true
		p.problem("%s: registry differs from golden: %s", r.key, d)
	}
}

func (w *serialWorkload) golden(p *passResult) *golden {
	g := &golden{Results: map[string]*core.Result{}, Counts: map[string]map[string]float64{}}
	for _, r := range p.runs {
		g.Results[r.key] = r.result
		g.Counts[r.key] = withoutCPI(r.counts)
	}
	return g
}

// setupRepeats is how many times a harness pass repeats its set-up probe.
const setupRepeats = 5

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// refEvery is how often a harness pass times a reference unit.
const refEvery = 100 * time.Millisecond

// harnessWorkload regenerates paper experiments through the harness, on
// a worker pool of one goroutine per CPU.
type harnessWorkload struct {
	env
	experiments []string
	observe     bool // every obs stream on
}

func (w *harnessWorkload) pass(rng *rand.Rand, census bool, pr *probe) (*passResult, error) {
	p := &passResult{expSecs: map[string]float64{}}
	order := append([]string(nil), w.experiments...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	// Set-up probe: the harness loads, scales and builds inside its own
	// runs, so the benchmark times the same steps for every Table III
	// benchmark at baseline, several times, and keeps the median. The
	// prefetchers an experiment attaches are not built here.
	var setups, news []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var newTime time.Duration
		if _, err := workload.Load(); err != nil {
			return nil, err
		}
		for _, s := range workload.MemoryIntensive() {
			o := core.Options{Config: machine(), Workload: scaled(s)}
			t := time.Now()
			if _, err := core.New(o); err != nil {
				return nil, fmt.Errorf("set-up %s: %w", s.Name, err)
			}
			newTime += time.Since(t)
		}
		setups = append(setups, time.Since(start).Seconds())
		news = append(news, newTime.Seconds())
	}
	p.setup = seconds(median(setups))
	p.newTime = seconds(median(news))

	var sink *obs.Sink
	var err error
	switch {
	case w.observe:
		p.streams = map[string]*streamWriter{}
		for _, n := range streamNames {
			p.streams[n] = newStreamWriter(w.gold, n)
		}
		sink, err = obs.NewSink(p.streams["metrics"], nil, p.streams["pfreport"],
			p.streams["cpistack"], p.streams["spans"], obs.Config{SampleEvery: 1000})
	case census:
		sink, err = obs.NewSink(nil, nil, nil, io.Discard, nil, obs.Config{})
	}
	if err != nil {
		return nil, err
	}

	// Each experiment gets its own debug server: run keys repeat across
	// experiments, and a server records a key only once.
	type expRun struct {
		e      *harness.Experiment
		ds     *harness.DebugServer
		tables string
		err    error
	}
	exps := make([]expRun, 0, len(order))
	defer func() {
		for _, x := range exps {
			x.ds.Close()
		}
	}()
	for _, id := range order {
		e := harness.ByID(id)
		if e == nil {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		ds, err := harness.NewDebugServer("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ds.SetSnapshotKeep(1 << 30)
		exps = append(exps, expRun{e: e, ds: ds})
	}

	clk := newRefClock(256)
	if err := pr.begin(); err != nil {
		return nil, err
	}
	stopClock := clk.sampleEvery(refEvery)
	for i := range exps {
		x := &exps[i]
		t := time.Now()
		tables, err := x.e.Run(harness.Config{Workers: runtime.NumCPU(), Obs: sink, Debug: x.ds})
		d := time.Since(t)
		p.expSecs[x.e.ID] = d.Seconds()
		p.wall += d
		x.tables, x.err = render(x.e, tables), err
	}
	stopClock()
	pr.end()
	p.refUnit = clk.unit()
	if err := sink.Close(); err != nil {
		return nil, err
	}

	for _, x := range exps {
		runs, err := debugRuns(x.ds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", x.e.ID, err)
		}
		bad := x.err != nil
		if x.err != nil {
			p.problem("%s: %v", x.e.ID, x.err)
		}
		if want, ok := referenceSection(w.reference, x.e.ID); !ok {
			bad = true
			p.problem("%s: no section in the results reference", x.e.ID)
		} else if x.tables != want {
			bad = true
			p.problem("%s: tables differ from the results reference", x.e.ID)
		}
		// Key order, not completion order, so float sums repeat exactly.
		sort.Slice(runs, func(i, j int) bool { return runs[i].key < runs[j].key })
		sum := map[string]float64{}
		for _, r := range runs {
			for n, v := range withoutCPI(r.counts) {
				sum[n] += v
			}
		}
		if w.gold != nil {
			if diff := diffCounts(sum, w.gold.Counts[x.e.ID]); diff != "" {
				bad = true
				p.problem("%s: registry sums differ from golden: %s", x.e.ID, diff)
			}
		}
		for i := range runs {
			r := &runs[i]
			r.key = x.e.ID + "/" + r.key
			r.failed = r.failed || bad
			if r.cycles == 0 && w.gold != nil {
				r.cycles = w.gold.Cycles[r.key]
			}
		}
		p.runs = append(p.runs, runs...)
	}
	if w.observe && w.gold != nil {
		for _, n := range streamNames {
			if got, want := p.streams[n].digest(), w.gold.Streams[n]; got != want {
				p.problem("stream %s: %+v, golden %+v", n, got, want)
				for i := range p.runs {
					p.runs[i].failed = true
				}
			}
		}
	}
	sort.Slice(p.runs, func(i, j int) bool { return p.runs[i].key < p.runs[j].key })
	return p, nil
}

func (w *harnessWorkload) golden(p *passResult) *golden {
	g := &golden{Counts: map[string]map[string]float64{}, Cycles: map[string]uint64{}}
	for _, r := range p.runs {
		g.Cycles[r.key] = r.cycles
		id, _, _ := strings.Cut(r.key, "/")
		if g.Counts[id] == nil {
			g.Counts[id] = map[string]float64{}
		}
		for n, v := range withoutCPI(r.counts) {
			g.Counts[id][n] += v
		}
	}
	if w.observe {
		g.Streams = map[string]streamDigest{}
		for n, s := range p.streams {
			g.Streams[n] = s.digest()
		}
	}
	return g
}

// streamNames are the obs JSONL streams the observed workload records.
var streamNames = []string{"metrics", "pfreport", "cpistack", "spans"}

// render prints an experiment's tables exactly as cmd/mtpref does,
// without the host-timing footer.
func render(e *harness.Experiment, tables []*stats.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (%s) ==\n", e.ID, e.PaperRef)
	for _, t := range tables {
		fmt.Fprintln(&b, t)
	}
	b.WriteString("\n")
	return b.String()
}

// debugRuns reads a finished experiment's per-run seconds (/runs) and
// end-of-run registry snapshots (/metrics) from its debug server.
func debugRuns(ds *harness.DebugServer) ([]simRun, error) {
	base := "http://" + ds.Addr()
	var status struct {
		Runs []struct {
			Key     string  `json:"key"`
			Status  string  `json:"status"`
			Seconds float64 `json:"seconds"`
		} `json:"runs"`
	}
	body, err := httpGet(base + "/runs")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, &status); err != nil {
		return nil, fmt.Errorf("/runs: %w", err)
	}
	body, err = httpGet(base + "/metrics")
	if err != nil {
		return nil, err
	}
	snaps, err := parseMetrics(string(body))
	if err != nil {
		return nil, err
	}
	runs := make([]simRun, 0, len(status.Runs))
	for _, s := range status.Runs {
		r := simRun{key: s.Key, seconds: s.Seconds, failed: s.Status != "done"}
		if snap := snaps[s.Key]; snap != nil {
			r.counts = snap.counts
			r.cycles = cpiCycles(r.counts, snap.cores)
		} else {
			r.failed = true
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// runSnapshot is one run's registry as /metrics exposes it.
type runSnapshot struct {
	counts map[string]float64
	cores  map[string]bool
}

// parseMetrics reads the sim_* lines of a debug server's Prometheus
// exposition into per-run registry sums.
func parseMetrics(text string) (map[string]*runSnapshot, error) {
	out := map[string]*runSnapshot{}
	for _, line := range strings.Split(text, "\n") {
		name, rest, ok := strings.Cut(line, "{")
		if !ok || !strings.HasPrefix(name, "sim_") {
			continue
		}
		labels, value, ok := strings.Cut(rest, "} ")
		if !ok {
			return nil, fmt.Errorf("/metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		run, core := label(labels, "run"), label(labels, "core")
		s := out[run]
		if s == nil {
			s = &runSnapshot{counts: map[string]float64{}, cores: map[string]bool{}}
			out[run] = s
		}
		name = strings.TrimPrefix(name, "sim_")
		s.counts[name] += v
		if core != "-1" {
			s.cores[core] = true
		}
	}
	return out, nil
}

// label extracts one quoted label value from a Prometheus label set.
func label(labels, key string) string {
	i := strings.Index(labels, key+"=\"")
	if i < 0 {
		return ""
	}
	v, err := strconv.QuotedPrefix(labels[i+len(key)+1:])
	if err != nil {
		return ""
	}
	s, _ := strconv.Unquote(v)
	return s
}

// cpiCycles recovers a run's simulated cycles from its CPI-stack
// buckets, which give every core one bucket per executed cycle: cycles
// 0 through Result.Cycles inclusive. 0 without CPI stacks.
func cpiCycles(counts map[string]float64, cores map[string]bool) uint64 {
	var sum float64
	for n, v := range counts {
		if strings.HasPrefix(n, cpiPrefix) {
			sum += v
		}
	}
	if len(cores) == 0 || sum == 0 {
		return 0
	}
	return uint64(sum)/uint64(len(cores)) - 1
}

const cpiPrefix = "smcore_cpi_"

// snapshotCounts sums a registry snapshot by (Prometheus-style) name.
func snapshotCounts(snap []obs.SnapshotEntry) map[string]float64 {
	counts := map[string]float64{}
	for _, e := range snap {
		counts[promName(e.Name)] += e.Value
	}
	return counts
}

// promName maps a registry name onto the Prometheus charset the debug
// server exposes, so serial and harness runs share one naming.
func promName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		}
		return '_'
	}, s)
}

// withoutCPI drops what depends on the attached observers: the CPI-stack
// buckets, which exist only in census passes, and the count of skipped
// cycles, since observer deadlines bound each skip. What remains is the
// simulated machine's own state, which must repeat exactly.
func withoutCPI(counts map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(counts))
	for n, v := range counts {
		if !strings.HasPrefix(n, cpiPrefix) && n != skippedName {
			out[n] = v
		}
	}
	return out
}

// skippedName is the registry counter of cycles the event-driven loop
// never visited.
const skippedName = "core_cycles_skipped"

// diffCounts describes the first difference between two registry sums
// ("" when equal on every name of either).
func diffCounts(got, want map[string]float64) string {
	if want == nil {
		return "no golden entry"
	}
	got = withoutCPI(got)
	for n, v := range want {
		if got[n] != v {
			return fmt.Sprintf("%s = %v, want %v", n, got[n], v)
		}
	}
	for n, v := range got {
		if _, ok := want[n]; !ok {
			return fmt.Sprintf("%s = %v, not in golden", n, v)
		}
	}
	return ""
}

// sameJSON reports whether two values encode to identical JSON.
func sameJSON(a, b any) bool {
	ja, err := json.Marshal(a)
	if err != nil {
		return false
	}
	jb, err := json.Marshal(b)
	return err == nil && string(ja) == string(jb)
}

// loadGolden reads a workload's golden file.
func loadGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if g.Counts == nil {
		return nil, errors.New(path + ": no counts")
	}
	return &g, nil
}
