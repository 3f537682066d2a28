package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mtprefetch/internal/statcli"
)

// sampleJSONL holds two runs in the -spans schema. Run a fills one
// demand ("none") and one GS prefetch and merges a second demand in the
// MRQ; run b fills one demand and drops another. Every run ends with
// spansummary trailers whose stage sums are deliberately wrong: the
// tool must aggregate only the per-request span lines, so any trailer
// that leaked in would skew the shares below. Aggregated over both
// runs, "none" has 2 fills summing to 1500 cycles — mrq 100 (6.7%),
// noc_req 40 (2.7%), dram_queue 380 (25.3%), dram_service 800 (53.3%),
// noc_resp 180 (12.0%) — and "gs" has 1 fill of 500 cycles split
// 10/2/20/60/8%.
const sampleJSONL = `{"record":"span","run":"hw/a/mthwp","id":1,"core":0,"warp":0,"pc":3,"kind":"demand","source":"none","terminal":"fill","issue":10,"mrq":100,"noc_req":20,"dram_queue":300,"dram_service":500,"noc_resp":80,"total":1000,"row":"miss"}
{"record":"span","run":"hw/a/mthwp","id":2,"core":0,"warp":1,"pc":3,"kind":"prefetch","source":"gs","terminal":"fill","issue":12,"mrq":50,"noc_req":10,"dram_queue":100,"dram_service":300,"noc_resp":40,"total":500,"row":"hit"}
{"record":"span","run":"hw/a/mthwp","id":3,"core":1,"warp":0,"pc":3,"kind":"demand","source":"none","terminal":"mrq_merged","issue":20,"mrq":0,"noc_req":0,"dram_queue":0,"dram_service":0,"noc_resp":0,"total":30}
{"record":"spansummary","run":"hw/a/mthwp","source":"none","fills":9,"mrq_merged":9,"mrq_rejected":9,"dropped":9,"mrq":99999,"noc_req":0,"dram_queue":0,"dram_service":0,"noc_resp":0,"total":99999,"p50":1,"p95":1,"p99":1}
{"record":"spansummary","run":"hw/a/mthwp","source":"gs","fills":9,"mrq_merged":0,"mrq_rejected":0,"dropped":0,"mrq":99999,"noc_req":0,"dram_queue":0,"dram_service":0,"noc_resp":0,"total":99999,"p50":1,"p95":1,"p99":1}
{"record":"span","run":"base/b","id":4,"core":0,"warp":0,"pc":5,"kind":"demand","source":"none","terminal":"fill","issue":40,"mrq":0,"noc_req":20,"dram_queue":80,"dram_service":300,"noc_resp":100,"total":500,"dram_merged":true}
{"record":"span","run":"base/b","id":5,"core":0,"warp":2,"pc":5,"kind":"demand","source":"none","terminal":"dropped","issue":44,"mrq":0,"noc_req":0,"dram_queue":0,"dram_service":0,"noc_resp":0,"total":12}
{"record":"spansummary","run":"base/b","source":"none","fills":9,"mrq_merged":0,"mrq_rejected":0,"dropped":9,"mrq":99999,"noc_req":0,"dram_queue":0,"dram_service":0,"noc_resp":0,"total":99999,"p50":1,"p95":1,"p99":1}
`

// aggregateSample reads sampleJSONL through the shared statcli loop,
// exactly as main does.
func aggregateSample(t *testing.T, filter *regexp.Regexp) *aggregate {
	t.Helper()
	agg := newAggregate()
	if err := statcli.Read(strings.NewReader(sampleJSONL), filter, agg.line); err != nil {
		t.Fatal(err)
	}
	return agg
}

func TestAggregateTerminalsAndSkipsSummaries(t *testing.T) {
	agg := aggregateSample(t, nil)
	if agg.spans != 5 {
		t.Errorf("aggregated %d spans, want 5 (spansummary trailers must be skipped)", agg.spans)
	}
	none := agg.perSrc["none"]
	if none == nil {
		t.Fatal("no aggregate for source none")
	}
	if none.fills != 2 || none.mrqMerged != 1 || none.mrqRejected != 0 || none.dropped != 1 {
		t.Errorf("none terminals = fills %d merged %d rejected %d dropped %d, want 2/1/0/1",
			none.fills, none.mrqMerged, none.mrqRejected, none.dropped)
	}
	if want := [len(stageNames)]uint64{100, 40, 380, 800, 180}; none.stage != want {
		t.Errorf("none stage sums = %v, want %v", none.stage, want)
	}
	if none.total.Count != 2 || none.total.Sum != 1500 {
		t.Errorf("none totals: %d fills summing to %d, want 2 summing to 1500",
			none.total.Count, none.total.Sum)
	}
	if gs := agg.perSrc["gs"]; gs == nil || gs.fills != 1 || gs.total.Sum != 500 {
		t.Errorf("gs aggregate = %+v, want one 500-cycle fill", gs)
	}
}

func TestWaterfallStageShares(t *testing.T) {
	agg := aggregateSample(t, nil)
	var buf bytes.Buffer
	if err := writeTable(&buf, agg.perSrc); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] {
		f := strings.Fields(line)
		rows[f[0]] = f
	}
	// Columns: source fills merged reject dropped avgtotal mrq% nocreq%
	// dramq% dramsvc% nocresp% p50 p95 p99.
	want := map[string][]string{
		"none": {"none", "2", "1", "0", "1", "750.0", "6.7", "2.7", "25.3", "53.3", "12.0"},
		"gs":   {"gs", "1", "0", "0", "0", "500.0", "10.0", "2.0", "20.0", "60.0", "8.0"},
	}
	for src, w := range want {
		got := rows[src]
		if len(got) < len(w) {
			t.Fatalf("%s row missing or short: %q\n%s", src, got, buf.String())
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s column %d = %s, want %s\n%s", src, i, got[i], w[i], buf.String())
			}
		}
	}
	if len(rows) != 2 {
		t.Errorf("got %d source rows, want 2:\n%s", len(rows), buf.String())
	}
}

func TestAggregateRunFilter(t *testing.T) {
	agg := aggregateSample(t, regexp.MustCompile(`^base/`))
	if agg.spans != 2 {
		t.Errorf("filter kept %d spans, want 2", agg.spans)
	}
	if _, ok := agg.perRun["hw/a/mthwp"]; ok || len(agg.perRun) != 1 {
		t.Errorf("filter kept runs %v, want only base/b", sortedKeys(agg.perRun))
	}
	if _, ok := agg.perSrc["gs"]; ok {
		t.Error("filtered-out run's gs spans still aggregated")
	}
}

func TestAggregateRejectsGarbage(t *testing.T) {
	agg := newAggregate()
	if err := statcli.Read(strings.NewReader("not json\n"), nil, agg.line); err == nil {
		t.Fatal("garbage line accepted")
	}
}

// mainArgsEnv carries newline-separated arguments into a re-executed
// test binary, which then runs main instead of the tests, so exit codes
// are observed from a real process.
const mainArgsEnv = "SPANSTAT_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if v, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = []string{"spanstat"}
		if v != "" {
			os.Args = append(os.Args, strings.Split(v, "\n")...)
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs spanstat with args in a child process (stdin empty) and
// returns its stdout, stderr and exit code.
func runMain(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\n"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &ee):
		return stdout.String(), stderr.String(), ee.ExitCode()
	}
	t.Fatal(err)
	return "", "", 0
}

func writeSample(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMainByRunTables(t *testing.T) {
	out, errOut, code := runMain(t, "-byrun", writeSample(t, sampleJSONL))
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errOut)
	}
	if !strings.HasPrefix(out, "2 run(s), 5 sampled span(s)\n") {
		t.Errorf("header wrong:\n%s", out)
	}
	// One cross-run table, then one table per run in sorted key order.
	if n := strings.Count(out, "dramsvc%"); n != 3 {
		t.Errorf("got %d waterfall tables, want 3:\n%s", n, out)
	}
	ib, ia := strings.Index(out, "\nbase/b\n"), strings.Index(out, "\nhw/a/mthwp\n")
	if ib < 0 || ia < ib {
		t.Fatalf("per-run sections missing or unsorted:\n%s", out)
	}
	if strings.Contains(out[ib:ia], "gs ") {
		t.Errorf("base/b table lists a gs row:\n%s", out[ib:ia])
	}
	if !strings.Contains(out[ia:], "gs ") {
		t.Errorf("hw/a/mthwp table lacks its gs row:\n%s", out[ia:])
	}
}

func TestMainRunFilterAndEmpty(t *testing.T) {
	path := writeSample(t, sampleJSONL)
	out, _, code := runMain(t, "-run", "^hw/", path)
	if code != 0 || !strings.HasPrefix(out, "1 run(s), 3 sampled span(s)\n") {
		t.Errorf("-run ^hw/: exit %d, output:\n%s", code, out)
	}
	_, errOut, code := runMain(t, "-run", "nomatch", path)
	if code != 1 || !strings.Contains(errOut, `no span records match -run "nomatch"`) {
		t.Errorf("-run with no match: exit %d, stderr %q; want 1 and the filter diagnostic", code, errOut)
	}
	// Only trailers, no per-request lines: nothing to aggregate.
	var trailers strings.Builder
	for _, line := range strings.SplitAfter(sampleJSONL, "\n") {
		if strings.Contains(line, `"spansummary"`) {
			trailers.WriteString(line)
		}
	}
	_, errOut, code = runMain(t, writeSample(t, trailers.String()))
	if code != 1 || !strings.Contains(errOut, "no span records in input") {
		t.Errorf("summary-only input: exit %d, stderr %q; want 1", code, errOut)
	}
	_, _, code = runMain(t) // empty stdin
	if code != 1 {
		t.Errorf("empty stdin: exit %d, want 1", code)
	}
}

func TestMainUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-nosuchflag"}, {"-run", "("}} {
		_, errOut, code := runMain(t, args...)
		if code != 2 {
			t.Errorf("%q: exit %d, want 2 (usage error); stderr: %s", args, code, errOut)
		}
	}
}
