// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator's public Go APIs for a fixed host time,
// checks every output, and prints its metrics as one JSON object on the
// last line of standard output. See README.md for the workloads, the
// metrics and what each should move.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload membound --seed 1 --seconds 10 --trace 0
//	perfbench --workload membound --update-golden   # rewrite the golden file
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mtprefetch/internal/stats"
	"mtprefetch/internal/workload"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"membound", "uncoalesced", "observed"}

func newWorkload(name string, e env) (workloadRunner, bool) {
	switch name {
	case "membound":
		return &serialWorkload{env: e, benches: []string{"stream", "scalar", "monte"}}, true
	case "uncoalesced":
		return &serialWorkload{env: e, benches: []string{"bfs", "sepia", "cfd", "linear"}}, true
	case "observed":
		return &harnessWorkload{env: e, experiments: []string{"gstable", "fig13"}, observe: true}, true
	}
	return nil, false
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed for run and experiment order")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	update := fs.Bool("update-golden", false, "rewrite the workload's golden file from this run's outputs")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	if err := run(*name, *seed, *seconds, *trace == 1, *update); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// Paths relative to the repository root, where the benchmark runs.
const (
	referencePath = "results_reference.txt"
	goldenDir     = "perfbench/golden"
)

func run(name string, seed uint64, seconds float64, traced, update bool) error {
	refData, err := os.ReadFile(referencePath)
	if err != nil {
		return err
	}
	goldPath := filepath.Join(goldenDir, name+".json")
	e := env{reference: string(refData)}
	if !update {
		if e.gold, err = loadGolden(goldPath); err != nil {
			return err
		}
	}
	w, ok := newWorkload(name, e)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	passNo := uint64(0)
	next := func(census bool, pr *probe) (*passResult, error) {
		passNo++
		p, err := w.pass(rand.New(rand.NewPCG(seed, passNo)), census, pr)
		if err == nil {
			p.normalize()
		}
		return p, err
	}

	// A census pass carries cycle accounting (obs CPI stacks), so it
	// yields every run's simulated cycles and CPI stack. Traced runs take
	// their simulated counts from it, and the golden files are written
	// from it. It is never timed; untraced runs skip it and read the
	// cycles of harness runs, which only a census can see, from the
	// golden, whose registry sums every pass must match exactly.
	var census *passResult
	if traced || update {
		if census, err = next(true, &probe{}); err != nil {
			return err
		}
		if update {
			return writeGolden(goldPath, w, census)
		}
	} else if _, err := workload.Load(); err != nil { // warm the suite
		return err
	}

	// A traced run alternates plain and profiled passes, so drift in the
	// host's speed cannot pose as tracing overhead.
	var passes, profiled []*passResult
	var profiles [][]byte
	var allocs, allocBytes uint64 // over the plain passes
	start := time.Now()
	for len(passes) == 0 || traced && len(profiled) == 0 || time.Since(start).Seconds() < seconds {
		pr := &probe{}
		if traced && len(profiled) < len(passes) {
			pr.profile = &bytes.Buffer{}
		}
		// Every pass starts from a collected heap, so neither its times
		// nor its peak RSS depend on what the previous pass left for the
		// collector.
		runtime.GC()
		perPassRSS := resetPeakRSS()
		p, err := next(false, pr)
		if err != nil {
			return err
		}
		if perPassRSS {
			p.peakRSS = hwmMB()
		}
		if pr.profile != nil {
			profiles = append(profiles, pr.profile.Bytes())
			profiled = append(profiled, p)
		} else {
			allocs += pr.mallocs
			allocBytes += pr.size
			passes = append(passes, p)
		}
	}

	res := result{Metrics: map[string]metric{}}
	var problems []string
	for _, p := range slices.Concat(passes, profiled, []*passResult{census}) {
		if p == nil {
			continue // no census
		}
		res.Attempted += len(p.runs)
		res.Failed += p.failedRuns()
		problems = append(problems, p.problems...)
	}
	if traced {
		stacks, err := profileStacks(profileDir, profiles)
		if err != nil {
			return err
		}
		att := attribute(stacks)
		perRun := float64(len(census.runs) * len(passes))
		res.Metrics["runtime.allocs_per_run"] = metric{float64(allocs) / perRun, "count"}
		res.Metrics["runtime.alloc_bytes_per_run"] = metric{float64(allocBytes) / perRun, "B"}
		if err := layerMetrics(res.Metrics, census, passes, profiled, att); err != nil {
			problems = append(problems, err.Error())
		}
	} else {
		e2eMetrics(res.Metrics, passes)
		res.Metrics["ok_frac"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "frac"}
	}
	res.Correct = res.Failed == 0 && len(problems) == 0 && res.Attempted > 0
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	info := map[string]any{"workload": name, "seed": seed, "passes": len(passes) + len(profiled),
		"runs_per_pass": len(passes[0].runs), "go": runtime.Version(), "cpus": runtime.NumCPU()}
	info["raw_pass_wall_s"] = perPass(passes, func(p *passResult) float64 { return math.Round(p.rawWall.Seconds()*1e4) / 1e4 })
	info["ref_unit_ms"] = perPass(passes, func(p *passResult) float64 { return math.Round(p.refUnit*1e5) / 100 })
	if !traced {
		times := runSeconds(passes)
		pct, _ := tailPercentile(times, 10)
		info["run_tail_percentile"], info["run_samples"] = pct, len(times)
	}
	infoLine, _ := json.Marshal(info)
	fmt.Printf("# %s\n", infoLine)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func writeGolden(path string, w workloadRunner, census *passResult) error {
	if len(census.problems) > 0 {
		return fmt.Errorf("not writing %s: %s", path, strings.Join(census.problems, "; "))
	}
	data, err := json.MarshalIndent(w.golden(census), "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runSeconds(ps []*passResult) []float64 {
	var xs []float64
	for _, p := range ps {
		for _, r := range p.runs {
			xs = append(xs, r.seconds)
		}
	}
	return xs
}

// runTotal is the host seconds of a pass's runs, summed.
func runTotal(p *passResult) float64 {
	var s float64
	for _, r := range p.runs {
		s += r.seconds
	}
	return s
}

// passCycles is the simulated cycles of one pass.
func passCycles(p *passResult) float64 {
	var cycles float64
	for _, r := range p.runs {
		cycles += float64(r.cycles)
	}
	return cycles
}

// passSkipped is the cycles a pass's runs skipped. Observers bound skips,
// so this comes from an observer-free pass, not the census.
func passSkipped(p *passResult) float64 {
	var skipped float64
	for _, r := range p.runs {
		skipped += r.counts[skippedName]
	}
	return skipped
}

func perPass(ps []*passResult, f func(*passResult) float64) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return xs
}

func e2eMetrics(m map[string]metric, passes []*passResult) {
	walls := perPass(passes, func(p *passResult) float64 { return p.wall.Seconds() })
	var wallSum, cycles float64
	for i, p := range passes {
		wallSum += walls[i]
		cycles += passCycles(p)
	}
	times := runSeconds(passes)
	_, tail := tailPercentile(times, 10)
	m["setup_s"] = metric{median(perPass(passes, func(p *passResult) float64 { return p.setup.Seconds() })), "s"}
	m["wall_s"] = metric{median(walls), "s"}
	m["sim_cycles_per_s"] = metric{cycles / wallSum, "cycles/s"}
	// A median of each pass's runs, then over passes: pooled, the middle
	// sample can fall in a gap between two runs' durations and jump across
	// it from one run of the benchmark to the next.
	m["run_p50_s"] = metric{median(perPass(passes, func(p *passResult) float64 {
		return median(runSeconds([]*passResult{p}))
	})), "s"}
	m["run_tail_s"] = metric{tail, "s"}
	rss := median(perPass(passes, func(p *passResult) float64 { return p.peakRSS }))
	if rss == 0 { // no per-pass reset: the process's lifetime peak
		rss = peakRSSMB()
	}
	m["peak_rss_mb"] = metric{rss, "MB"}
	m["paper_cpi_err"] = metric{paperCPIErr(passes[0]), "log"}
}

// paperCPIErr is how far the workload's simulated baseline CPIs sit from
// the paper's Table III values: the mean over benchmarks of
// |log(baseCPI/paperBase)|, the log of the geometric-mean error factor.
// (A geomean of the |log| terms themselves would collapse towards 0 as
// soon as one benchmark matched the paper closely.)
func paperCPIErr(p *passResult) float64 {
	var sum float64
	n := 0
	seen := map[string]bool{}
	for _, r := range p.runs {
		bench, ok := baseBench(r.key)
		if !ok || seen[bench] {
			continue
		}
		spec := workload.ByName(bench)
		if spec == nil || spec.PaperBaseCPI == 0 || r.cycles == 0 {
			continue
		}
		seen[bench] = true
		cpi := float64(r.cycles) * baselineCores / r.counts["smcore_prog_instructions"]
		sum += math.Abs(math.Log(cpi / spec.PaperBaseCPI))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// baseBench extracts the benchmark of a baseline run key: "base/<b>"
// (serial) or "<experiment>/base/<b>" (harness).
func baseBench(key string) (string, bool) {
	parts := strings.Split(key, "/")
	for i := 0; i+1 < len(parts); i++ {
		if parts[i] == "base" {
			return parts[i+1], true
		}
	}
	return "", false
}

// baselineCores is the core count of the Table II machine every
// workload simulates.
const baselineCores = 14

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM), so the next
// hwmMB covers only what runs after it. A maximum over a whole run would
// grow with the number of passes; a per-pass peak does not.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// hwmMB reads the peak resident set since the last resetPeakRSS (0 when
// unreadable).
func hwmMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// peakRSSMB is the process's lifetime peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerNames are the internal/ packages reported as layers; samples in
// any other internal package fold into internal_other.
var layerNames = []string{"core", "dram", "smcore", "kernel", "cache", "prefetch", "throttle",
	"mrq", "noc", "addrmap", "ring", "memreq", "obs", "harness", "stats", "workload", "swpref"}

var harnessExperiments = []string{"gstable", "fig13"}

func layerMetrics(m map[string]metric, census *passResult, plain, profiled []*passResult, att attribution) error {
	share := func(n string, v float64) { m[n] = metric{v, "frac"} }
	count := func(n string, v float64) { m[n] = metric{v, "count"} }
	secs := func(n string, v float64) { m[n] = metric{v, "s"} }

	// Host CPU shares from the profile.
	var sum float64
	for _, l := range layerNames {
		v := att.share(l)
		share(l+".host_share", v)
		sum += v
	}
	var internalOther float64
	for _, n := range att.names() {
		if n != bucketBench && n != bucketRuntime && n != bucketOther && !slices.Contains(layerNames, n) {
			internalOther += att.share(n)
		}
	}
	share("internal_other.host_share", internalOther)
	sum += internalOther
	for _, n := range []string{bucketBench, bucketRuntime, bucketOther} {
		share(n+".host_share", att.share(n))
		sum += att.share(n)
	}
	gc := 0.0
	if att.total > 0 {
		gc = float64(att.gc) / float64(att.total)
	}
	share("runtime.gc_share", gc)
	count("trace.samples", float64(att.total))
	plainWall := median(perPass(plain, func(p *passResult) float64 { return p.wall.Seconds() }))
	tracedWall := median(perPass(profiled, func(p *passResult) float64 { return p.wall.Seconds() }))
	share("trace.overhead_frac", tracedWall/plainWall-1)

	// Benchmark-side spans around the calls into core and harness.
	cycles, skipped := passCycles(census), passSkipped(plain[0])
	visited := cycles - skipped
	runSecs := median(perPass(plain, runTotal))
	secs("core.new_s", median(perPass(plain, func(p *passResult) float64 { return p.newTime.Seconds() })))
	secs("core.run_s", runSecs)
	m["core.ns_per_visited_cycle"] = metric{runSecs * 1e9 / visited, "ns"}
	count("core.visited_cycles", visited)
	share("core.skipped_frac", skipped/cycles)
	count("harness.runs_executed", float64(len(census.runs)))
	workers := 1.0
	if census.expSecs != nil {
		workers = float64(runtime.NumCPU())
	}
	share("harness.worker_busy_frac", median(perPass(plain, func(p *passResult) float64 {
		return runTotal(p) / (p.wall.Seconds() * workers)
	})))
	for _, id := range harnessExperiments {
		secs("harness.experiment_s."+id, median(perPass(plain, func(p *passResult) float64 { return p.expSecs[id] })))
	}
	secs("obs.write_s", median(perPass(plain, func(p *passResult) float64 {
		var d time.Duration
		for _, s := range p.streams {
			d += s.busy
		}
		return d.Seconds()
	})))
	for _, n := range streamNames {
		m["obs.bytes."+n] = metric{median(perPass(plain, func(p *passResult) float64 {
			if s := p.streams[n]; s != nil {
				return float64(s.bytes)
			}
			return 0
		})), "B"}
	}

	// Simulated counts: one pass's registries, from the census.
	c := map[string]float64{}
	var lat stats.Histogram // serial workloads only; harness runs expose no histograms
	for _, r := range census.runs {
		for n, v := range r.counts {
			c[n] += v
		}
		lat.Merge(&r.latency)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	txns := c["dram_demands"] + c["dram_prefetches"] + c["dram_writebacks"]
	accepted := txns + c["dram_inter_core_merges"]
	attempts := accepted + c["dram_rejects"]
	count("dram.enqueue_attempts", attempts)
	count("dram.rejects", c["dram_rejects"])
	share("dram.accept_frac", ratio(accepted, attempts))
	count("dram.txns", txns)
	rowAll := c["dram_row_hits"] + c["dram_row_misses"] + c["dram_row_closed"]
	share("dram.row_hit_rate", ratio(c["dram_row_hits"], rowAll))
	count("dram.inter_core_merges", c["dram_inter_core_merges"])
	m["dram.demand_latency_p50_cyc"] = metric{lat.Percentile(50), "cycles"}
	m["dram.demand_latency_p95_cyc"] = metric{lat.Percentile(95), "cycles"}

	m["kernel.txn_per_mem_instr"] = metric{ratio(c["smcore_demand_transactions"], c["smcore_mem_instrs"]), "ratio"}
	count("cache.accesses", c["pfcache_accesses"])
	share("cache.hit_rate", ratio(c["pfcache_hits"], c["pfcache_accesses"]))
	count("smcore.issue_stall_full_mrq", c["smcore_issue_stall_full_mrq"])
	count("smcore.warp_instr", c["smcore_instructions"])
	var cpiAll float64
	for n, v := range c {
		if strings.HasPrefix(n, cpiPrefix) {
			cpiAll += v
		}
	}
	for _, b := range []string{"issued", "scoreboard", "mrq_full", "idle"} {
		share("smcore.cpi_"+b, ratio(c[cpiPrefix+b], cpiAll))
	}

	issued := c["smcore_prefetches_issued"]
	count("prefetch.generated", c["smcore_prefetches_generated"])
	count("prefetch.issued", issued)
	share("prefetch.accuracy", math.Min(1, ratio(c["pfcache_first_uses"], issued)))
	share("prefetch.coverage", ratio(c["smcore_pfcache_hit_transactions"], c["smcore_demand_transactions"]))
	share("prefetch.late_frac", ratio(c["smcore_late_prefetches"], issued))
	count("mthwp.pws_accesses", c["mthwp_pws_accesses"])
	count("mthwp.gs_hits", c["mthwp_gs_hits"])
	count("throttle.periods", c["throttle_periods"])
	count("throttle.no_prefetch_periods", c["throttle_no_prefetch_periods"])
	count("throttle.dropped", c["smcore_dropped_throttle"])

	arrivals := c["mrq_demands"] + c["mrq_prefetches"] + c["mrq_writebacks"] + c["mrq_merges"]
	count("mrq.arrivals", arrivals)
	share("mrq.merge_ratio", ratio(c["mrq_merges"], arrivals))
	count("mrq.rejects", c["mrq_rejects"])
	count("noc.requests_injected", c["noc_requests_injected"])
	count("noc.inject_stalls", c["noc_inject_stalls"])

	if att.total == 0 {
		return fmt.Errorf("trace: the profile holds no samples")
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("trace: layer shares sum to %v, not 1", sum)
	}
	return nil
}
