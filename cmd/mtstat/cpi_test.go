package main

import (
	"bytes"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// cpiSample covers two runs of a two-core and a one-core config, with
// the epoch/tolerance/summary records a real -cpistack stream
// interleaves. Values are chosen so the derived shares are easy to
// eyeball: run a totals 2000 cycles with 1000 issued (50.0%), 400
// scoreboard (20.0%), 300 mrq_full (15.0%), 200 idle (10.0%), 100
// drain (5.0%); run b is 100% issued.
const cpiSample = `{"record":"cpiepoch","run":"hw/a/stride/true","cycle":512,"issued":100,"idle":0,"scoreboard":28,"mrq_full":0,"throttled":0,"drain":0}
{"record":"cpitol","run":"hw/a/stride/true","cycle":512,"core":0,"ready_warps":3,"active_warps":5,"live_warps":8,"mrq_outstanding":2,"mrq_free":6,"oldest_fill_age":40}
{"record":"cpistack","run":"hw/a/stride/true","core":0,"cycles":1000,"issued":600,"idle":100,"scoreboard":200,"mrq_full":100,"throttled":0,"drain":0}
{"record":"cpistack","run":"hw/a/stride/true","core":1,"cycles":1000,"issued":400,"idle":100,"scoreboard":200,"mrq_full":200,"throttled":0,"drain":100}
{"record":"cpisummary","run":"hw/a/stride/true","cores":2,"cycles":2000,"issued":1000,"idle":200,"scoreboard":400,"mrq_full":300,"throttled":0,"drain":100}
{"record":"cpistack","run":"hw/b/none/false","core":0,"cycles":500,"issued":500,"idle":0,"scoreboard":0,"mrq_full":0,"throttled":0,"drain":0}
{"record":"cpisummary","run":"hw/b/none/false","cores":1,"cycles":500,"issued":500,"idle":0,"scoreboard":0,"mrq_full":0,"throttled":0,"drain":0}
`

func readCPI(t *testing.T, filter *regexp.Regexp, inputs ...string) *cpiStat {
	t.Helper()
	a := newCPIStat()
	for _, in := range inputs {
		if err := read(strings.NewReader(in), filter, a.line); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestCPISummaryTable(t *testing.T) {
	var buf bytes.Buffer
	if err := readCPI(t, nil, cpiSample).writeSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2 run(s)") {
		t.Errorf("header wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header line, column line, two runs
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	var a, b string
	for _, l := range lines {
		if strings.HasPrefix(l, "hw/a/") {
			a = l
		}
		if strings.HasPrefix(l, "hw/b/") {
			b = l
		}
	}
	if a == "" || b == "" {
		t.Fatalf("missing run rows:\n%s", out)
	}
	// run a: 2 cores, 2000 cycles; issued 50.0, scoreboard 20.0,
	// mrq_full 15.0, idle 10.0, drain 5.0
	for _, want := range []string{" 2 ", "2000", "50.0", "20.0", "15.0", "10.0", "5.0"} {
		if !strings.Contains(a, want) {
			t.Errorf("run a row missing %q: %s", want, a)
		}
	}
	for _, want := range []string{"500", "100.0", "0.0"} {
		if !strings.Contains(b, want) {
			t.Errorf("run b row missing %q: %s", want, b)
		}
	}
}

func TestCPIRunFilter(t *testing.T) {
	a := readCPI(t, regexp.MustCompile(`stride`), cpiSample)
	if len(a.runs) != 1 {
		t.Fatalf("filter kept %d runs, want 1", len(a.runs))
	}
	if _, ok := a.runs["hw/b/none/false"]; ok {
		t.Error("filtered-out run still aggregated")
	}
}

func TestCPIByCoreTable(t *testing.T) {
	var buf bytes.Buffer
	if err := readCPI(t, nil, cpiSample).writeByCore(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"hw/a/stride/true", "hw/b/none/false",
		"scoreboard", "mrq_full", "600", "400"} {
		if !strings.Contains(out, want) {
			t.Errorf("per-core table missing %q:\n%s", want, out)
		}
	}
}

func TestCPIMergesAcrossStreams(t *testing.T) {
	ra := readCPI(t, nil, cpiSample, cpiSample).runs["hw/a/stride/true"]
	if ra == nil || sum(&ra.totals) != 4000 {
		t.Fatalf("cross-stream merge: run a total = %v, want 4000", ra)
	}
	if len(ra.cores) != 2 {
		t.Fatalf("run a cores = %d, want 2", len(ra.cores))
	}
}

// TestCPIRejectsNegativeCore: a negative core id is a bad line, not an
// index panic.
func TestCPIRejectsNegativeCore(t *testing.T) {
	err := read(strings.NewReader(`{"record":"cpistack","run":"r","core":-1}`+"\n"), nil, newCPIStat().line)
	if err == nil || !strings.Contains(err.Error(), "negative core -1") {
		t.Errorf("negative core returned %v, want a bad-line error", err)
	}
}

// TestCPIHugeCoreIndex: memory follows the number of lines, not the
// core id a line names, and rows render in core order. The id is large
// enough that a table indexed by it would allocate hundreds of MB,
// which the bound catches, yet small enough that such a regression
// fails the test instead of exhausting the host.
func TestCPIHugeCoreIndex(t *testing.T) {
	in := `{"record":"cpistack","run":"r","core":4194304,"cycles":7,"issued":7}` + "\n" +
		`{"record":"cpistack","run":"r","core":3,"cycles":5,"issued":5}` + "\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := readCPI(t, nil, in)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("two lines allocated %d bytes", grew)
	}
	var buf bytes.Buffer
	if err := a.write(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if f := strings.Fields(strings.Split(out, "\n")[2]); len(f) < 3 || f[0] != "r" || f[1] != "2" || f[2] != "12" {
		t.Errorf("summary row wants run r with 2 cores and 12 cycles:\n%s", out)
	}
	i3, iHuge := strings.Index(out, "\n3 "), strings.Index(out, "\n4194304 ")
	if i3 < 0 || iHuge < i3 {
		t.Errorf("per-core rows missing or out of core order:\n%s", out)
	}
}
