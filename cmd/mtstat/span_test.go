package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"mtprefetch/internal/obs"
)

// spanSample holds two runs in the -spans schema. Run a fills one
// demand ("none") and one GS prefetch and merges a second demand in the
// MRQ; run b fills one demand and drops another. Every run ends with
// spansummary trailers whose stage sums are deliberately wrong: the
// tool must aggregate only the per-request span lines, so any trailer
// that leaked in would skew the shares below. Aggregated over both
// runs, "none" has 2 fills summing to 1500 cycles — mrq 100 (6.7%),
// noc_req 40 (2.7%), dram_queue 380 (25.3%), dram_service 800 (53.3%),
// noc_resp 180 (12.0%) — and "gs" has 1 fill of 500 cycles split
// 10/2/20/60/8%.
const spanSample = `{"record":"span","run":"hw/a/mthwp","id":1,"core":0,"warp":0,"pc":3,"kind":"demand","source":"none","terminal":"fill","issue":10,"mrq":100,"noc_req":20,"dram_queue":300,"dram_service":500,"noc_resp":80,"total":1000,"row":"miss"}
{"record":"span","run":"hw/a/mthwp","id":2,"core":0,"warp":1,"pc":3,"kind":"prefetch","source":"gs","terminal":"fill","issue":12,"mrq":50,"noc_req":10,"dram_queue":100,"dram_service":300,"noc_resp":40,"total":500,"row":"hit"}
{"record":"span","run":"hw/a/mthwp","id":3,"core":1,"warp":0,"pc":3,"kind":"demand","source":"none","terminal":"mrq_merged","issue":20,"mrq":0,"noc_req":0,"dram_queue":0,"dram_service":0,"noc_resp":0,"total":30}
{"record":"spansummary","run":"hw/a/mthwp","source":"none","fills":9,"mrq_merged":9,"mrq_rejected":9,"dropped":9,"mrq":99999,"noc_req":0,"dram_queue":0,"dram_service":0,"noc_resp":0,"total":99999,"p50":1,"p95":1,"p99":1}
{"record":"spansummary","run":"hw/a/mthwp","source":"gs","fills":9,"mrq_merged":0,"mrq_rejected":0,"dropped":0,"mrq":99999,"noc_req":0,"dram_queue":0,"dram_service":0,"noc_resp":0,"total":99999,"p50":1,"p95":1,"p99":1}
{"record":"span","run":"base/b","id":4,"core":0,"warp":0,"pc":5,"kind":"demand","source":"none","terminal":"fill","issue":40,"mrq":0,"noc_req":20,"dram_queue":80,"dram_service":300,"noc_resp":100,"total":500,"dram_merged":true}
{"record":"span","run":"base/b","id":5,"core":0,"warp":2,"pc":5,"kind":"demand","source":"none","terminal":"dropped","issue":44,"mrq":0,"noc_req":0,"dram_queue":0,"dram_service":0,"noc_resp":0,"total":12}
{"record":"spansummary","run":"base/b","source":"none","fills":9,"mrq_merged":0,"mrq_rejected":0,"dropped":9,"mrq":99999,"noc_req":0,"dram_queue":0,"dram_service":0,"noc_resp":0,"total":99999,"p50":1,"p95":1,"p99":1}
`

func readSpans(t *testing.T, filter *regexp.Regexp) *spanStat {
	t.Helper()
	a := newSpanStat()
	if err := read(strings.NewReader(spanSample), filter, a.line); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSpanTerminalsAndSkipsSummaries(t *testing.T) {
	a := readSpans(t, nil)
	if a.spans != 5 {
		t.Errorf("aggregated %d spans, want 5 (spansummary trailers must be skipped)", a.spans)
	}
	none := a.perSrc["none"]
	if none == nil {
		t.Fatal("no aggregate for source none")
	}
	if none.fills != 2 || none.mrqMerged != 1 || none.mrqRejected != 0 || none.dropped != 1 {
		t.Errorf("none terminals = fills %d merged %d rejected %d dropped %d, want 2/1/0/1",
			none.fills, none.mrqMerged, none.mrqRejected, none.dropped)
	}
	if want := [obs.NumSpanStages]uint64{100, 40, 380, 800, 180}; none.stage != want {
		t.Errorf("none stage sums = %v, want %v", none.stage, want)
	}
	if none.total.Count != 2 || none.total.Sum != 1500 {
		t.Errorf("none totals: %d fills summing to %d, want 2 summing to 1500",
			none.total.Count, none.total.Sum)
	}
	if gs := a.perSrc["gs"]; gs == nil || gs.fills != 1 || gs.total.Sum != 500 {
		t.Errorf("gs aggregate = %+v, want one 500-cycle fill", gs)
	}
}

func TestSpanWaterfallStageShares(t *testing.T) {
	var buf bytes.Buffer
	if err := writeWaterfall(&buf, readSpans(t, nil).perSrc); err != nil {
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

func TestSpanRunFilter(t *testing.T) {
	a := readSpans(t, regexp.MustCompile(`^base/`))
	if a.spans != 2 {
		t.Errorf("filter kept %d spans, want 2", a.spans)
	}
	if _, ok := a.perRun["hw/a/mthwp"]; ok || len(a.perRun) != 1 {
		t.Errorf("filter kept runs %v, want only base/b", sortedKeys(a.perRun))
	}
	if _, ok := a.perSrc["gs"]; ok {
		t.Error("filtered-out run's gs spans still aggregated")
	}
}
