package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// pfSample covers two runs: a stride-RPT hardware run and an MT-HWP
// IP-table run, with a pfsummary trailer each. Values are chosen so the
// derived columns are easy to eyeball: stride-rpt accuracy (used/issued)
// = (6+2)/10 = 0.800, merge ratio 2/10 = 0.200, early rate 2/8 = 0.250;
// hw-ip accuracy = 3/4 = 0.750.
const pfSample = `{"record":"pfreport","run":"hw/a/stride/true","source":"stride-rpt","pc":4,"generated":12,"dropped_throttle":1,"dropped_filter":0,"dropped_in_cache":1,"dropped_queue_full":0,"merged_mrq":0,"issued":10,"late":2,"redundant":0,"useful":6,"early_evicted":2,"unused_at_drain":0,"hits":9,"demand_merges":2,"degree_sum":20}
{"record":"pfsummary","run":"hw/a/stride/true","demand_transactions":100,"generated":12,"issued":10,"useful":6,"late":2,"early_evicted":2,"hits":9}
{"record":"pfreport","run":"hw/b/pws+ip/true","source":"hw-ip","pc":7,"generated":5,"dropped_throttle":0,"dropped_filter":0,"dropped_in_cache":1,"dropped_queue_full":0,"merged_mrq":0,"issued":4,"late":1,"redundant":0,"useful":2,"early_evicted":1,"unused_at_drain":0,"hits":3,"demand_merges":1,"degree_sum":4}
{"record":"pfsummary","run":"hw/b/pws+ip/true","demand_transactions":50,"generated":5,"issued":4,"useful":2,"late":1,"early_evicted":1,"hits":3}
{"record":"epoch","run":"hw/b/pws+ip/true","cycle":512}
`

func readPF(t *testing.T, filter *regexp.Regexp, inputs ...string) *pfStat {
	t.Helper()
	a := newPFStat()
	for _, in := range inputs {
		if err := read(strings.NewReader(in), filter, a.line); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestPFSummaryTable(t *testing.T) {
	var buf bytes.Buffer
	if err := readPF(t, nil, pfSample).writeSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2 run(s), 150 demand transactions") {
		t.Errorf("header wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header line, column line, two sources
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	var stride, ip string
	for _, l := range lines {
		if strings.HasPrefix(l, "stride-rpt") {
			stride = l
		}
		if strings.HasPrefix(l, "hw-ip") {
			ip = l
		}
	}
	if stride == "" || ip == "" {
		t.Fatalf("missing source rows:\n%s", out)
	}
	// accuracy (6+2)/10, merge ratio 2/10, early rate 2/(6+2)
	for _, want := range []string{"0.800", "0.200", "0.250"} {
		if !strings.Contains(stride, want) {
			t.Errorf("stride-rpt row missing %s: %s", want, stride)
		}
	}
	if !strings.Contains(ip, "0.750") { // accuracy 3/4
		t.Errorf("hw-ip row missing accuracy 0.750: %s", ip)
	}
}

func TestPFRunFilter(t *testing.T) {
	a := readPF(t, regexp.MustCompile(`stride`), pfSample)
	if len(a.runs) != 1 {
		t.Fatalf("filter kept %d runs, want 1", len(a.runs))
	}
	if _, ok := a.perSrc["hw-ip"]; ok {
		t.Error("filtered-out run's source still aggregated")
	}
	if d := a.rep.DemandTransactions(); d != 100 {
		t.Errorf("demand = %d, want 100", d)
	}
}

func TestPFPerPCRebuild(t *testing.T) {
	a := readPF(t, nil, pfSample)
	// The rebuilt report must satisfy the same conservation identities
	// the simulator enforces, and render the per-PC table.
	if err := a.rep.CheckConservation(0); err != nil {
		t.Fatalf("rebuilt ledger does not balance: %v", err)
	}
	var buf bytes.Buffer
	if err := a.write(&buf, true); err != nil {
		t.Fatal(err)
	}
	summary, perPC, ok := strings.Cut(buf.String(), "\n\n")
	if !ok || !strings.Contains(summary, "mergeratio") {
		t.Fatalf("-bypc output lacks summary then per-PC table:\n%s", buf.String())
	}
	for _, want := range []string{"stride-rpt", "hw-ip", "accuracy", "lateness"} {
		if !strings.Contains(perPC, want) {
			t.Errorf("per-PC table missing %q:\n%s", want, perPC)
		}
	}
}

func TestPFMergesAcrossRuns(t *testing.T) {
	a := readPF(t, nil, pfSample, strings.ReplaceAll(pfSample, "hw/b/", "hw/c/"))
	c := a.perSrc["stride-rpt"]
	if c == nil || c.Issued != 20 {
		t.Fatalf("cross-run merge: stride-rpt issued = %v, want 20", c)
	}
	if d := a.rep.DemandTransactions(); d != 300 {
		t.Errorf("demand = %d, want 300", d)
	}
}
