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
)

// subTests lists, per subcommand, a sample stream, a run key in it, a
// stream of only record kinds the subcommand skips, a line of the kind
// it reads whose field does not fit the obs record type, the first line
// of its output for the sample, and a marker that only its breakdown
// flag prints.
var subTests = []struct {
	sub, sample, run, other, badField, header, detailMarker string
}{
	{"pf", pfSample, "hw/a/stride/true",
		`{"record":"epoch","run":"x","cycle":1}` + "\n",
		`{"record":"pfreport","pc":"x"}`,
		"2 run(s), 150 demand transactions\n", "lateness"},
	{"cpi", cpiSample, "hw/a/stride/true",
		`{"record":"cpiepoch","run":"x","cycle":1}` + "\n" +
			`{"record":"pfreport","run":"x","source":"stride-rpt"}` + "\n",
		`{"record":"cpistack","core":1e30}`,
		"2 run(s)\n", "\nhw/b/none/false\ncore "},
	{"span", spanSample, "hw/a/mthwp",
		`{"record":"spansummary","run":"x","source":"none","fills":1}` + "\n",
		`{"record":"span","total":-1}`,
		"2 run(s), 5 sampled span(s)\n", "\nbase/b\n"},
}

func TestReadParsesProbeAndSkipsBlanks(t *testing.T) {
	input := `{"record":"a","run":"r1","extra":1}` + "\n\n" +
		`{"record":"b","run":"r2"}` + "\n"
	var got []probe
	if err := read(strings.NewReader(input), nil, func(p probe, b []byte) error {
		if len(b) == 0 {
			t.Error("line callback received an empty line")
		}
		got = append(got, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (probe{Record: "a", Run: "r1"}) ||
		got[1] != (probe{Record: "b", Run: "r2"}) {
		t.Errorf("probes = %+v", got)
	}
}

// TestReadLineErrorPropagates: a subcommand's line error aborts the
// read with that error.
func TestReadLineErrorPropagates(t *testing.T) {
	errBoom := errors.New("boom")
	input := `{"record":"a"}` + "\n" + `{"record":"b"}` + "\n"
	calls := 0
	err := read(strings.NewReader(input), nil, func(p probe, _ []byte) error {
		calls++
		if p.Record == "a" {
			return errBoom
		}
		return nil
	})
	if err != errBoom {
		t.Errorf("line error not propagated: %v", err)
	}
	if calls != 1 {
		t.Errorf("read continued after line error: %d calls", calls)
	}
}

func TestReadRunFilter(t *testing.T) {
	input := `{"record":"x","run":"base/monte"}` + "\n" +
		`{"record":"x","run":"hw/monte"}` + "\n" +
		`{"record":"x","run":"hw/stream"}` + "\n"
	var got []string
	if err := read(strings.NewReader(input), regexp.MustCompile(`^hw/`), func(p probe, _ []byte) error {
		got = append(got, p.Run)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "hw/monte" || got[1] != "hw/stream" {
		t.Errorf("filtered runs = %q", got)
	}
}

// TestRejectsGarbage: a line that is not JSON is a parse error in the
// shared read loop, and so is a line whose fields do not fit the obs
// record type in every subcommand.
func TestRejectsGarbage(t *testing.T) {
	t.Run("read", func(t *testing.T) {
		err := read(strings.NewReader("not json\n"), nil, func(probe, []byte) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "bad JSONL line") {
			t.Errorf("garbage line returned %v", err)
		}
	})
	for _, tc := range subTests {
		t.Run(tc.sub, func(t *testing.T) {
			for _, bad := range []string{"not json", tc.badField} {
				err := read(strings.NewReader(bad+"\n"), nil, subcommands[tc.sub].newStat().line)
				if err == nil || !strings.Contains(err.Error(), "bad JSONL line") {
					t.Errorf("%s returned %v, want a bad-line error", bad, err)
				}
			}
		})
	}
}

// TestLongLines is the regression test for the bufio.Scanner "token too
// long" failure: a record padded past the old 1 MiB scanner cap (here
// via a long run name) must reach the line callback intact, and parse
// in every subcommand, not error out.
func TestLongLines(t *testing.T) {
	longRun := strings.Repeat("r", 2<<20)
	t.Run("read", func(t *testing.T) {
		var got []probe
		err := read(strings.NewReader(`{"record":"big","run":"`+longRun+`"}`+"\n"), nil, func(p probe, _ []byte) error {
			got = append(got, p)
			return nil
		})
		if err != nil || len(got) != 1 || got[0].Run != longRun {
			t.Fatalf("long line lost: %d probes, err %v", len(got), err)
		}
	})
	for _, tc := range subTests {
		t.Run(tc.sub, func(t *testing.T) {
			st := subcommands[tc.sub].newStat()
			input := strings.ReplaceAll(tc.sample, `"run":"`+tc.run+`"`, `"run":"`+longRun+`"`)
			if err := read(strings.NewReader(input), regexp.MustCompile(`^r+$`), st.line); err != nil {
				t.Fatalf("read with >1MiB lines: %v", err)
			}
			if st.empty() {
				t.Error("long-named run not aggregated")
			}
		})
	}
}

// TestEmpty: input with only record kinds a subcommand skips leaves it
// empty, so main exits nonzero instead of printing a zero-row table.
func TestEmpty(t *testing.T) {
	for _, tc := range subTests {
		t.Run(tc.sub, func(t *testing.T) {
			for in, want := range map[string]bool{tc.other: true, tc.sample: false} {
				st := subcommands[tc.sub].newStat()
				if err := read(strings.NewReader(in), nil, st.line); err != nil {
					t.Fatal(err)
				}
				if st.empty() != want {
					t.Errorf("empty() = %v, want %v for input\n%s", !want, want, in)
				}
			}
		})
	}
}

// mainArgsEnv carries newline-separated arguments into a re-executed
// test binary, which then runs mtstat instead of the tests, so exit
// codes are observed from a real process.
const mainArgsEnv = "MTSTAT_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if v, ok := os.LookupEnv(mainArgsEnv); ok {
		var args []string
		if v != "" {
			args = strings.Split(v, "\n")
		}
		os.Exit(mtstat(args))
	}
	os.Exit(m.Run())
}

// runMain runs mtstat with args in a child process (stdin empty) and
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
	path := filepath.Join(t.TempDir(), "in.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMainTables drives every subcommand as a process: exit 0 with its
// summary table, and its breakdown only under its breakdown flag.
func TestMainTables(t *testing.T) {
	for _, tc := range subTests {
		t.Run(tc.sub, func(t *testing.T) {
			sample := writeSample(t, tc.sample)
			detail := "-" + subcommands[tc.sub].detail
			out, errOut, code := runMain(t, tc.sub, sample)
			if code != 0 || !strings.HasPrefix(out, tc.header) || strings.Contains(out, tc.detailMarker) {
				t.Errorf("exit %d, stderr %q, output:\n%s", code, errOut, out)
			}
			out, _, code = runMain(t, tc.sub, detail, sample)
			if code != 0 || !strings.HasPrefix(out, tc.header) || !strings.Contains(out, tc.detailMarker) {
				t.Errorf("%s: exit %d, output lacks %q:\n%s", detail, code, tc.detailMarker, out)
			}
		})
	}
}

// TestMainRunFilterAndEmpty: -run keeps only matching runs (exit 0);
// unreadable, unmatched or empty input exits 1 with a diagnostic.
func TestMainRunFilterAndEmpty(t *testing.T) {
	for _, tc := range subTests {
		t.Run(tc.sub, func(t *testing.T) {
			sample := writeSample(t, tc.sample)
			what := subcommands[tc.sub].what
			out, _, code := runMain(t, tc.sub, "-run", "^"+regexp.QuoteMeta(tc.run)+"$", sample)
			if code != 0 || !strings.HasPrefix(out, "1 run(s)") {
				t.Errorf("-run %s: exit %d, output:\n%s", tc.run, code, out)
			}
			for _, c := range []struct {
				args   []string
				stderr string
			}{
				{[]string{"-run", "nomatch", sample}, "no " + what + ` match -run "nomatch"`},
				{[]string{writeSample(t, tc.other)}, "no " + what + " in input"},
				{nil, "no " + what + " in input"}, // empty stdin
				{[]string{writeSample(t, "not json\n")}, "bad JSONL line"},
				{[]string{filepath.Join(t.TempDir(), "missing.jsonl")}, "no such file"},
			} {
				_, errOut, code := runMain(t, append([]string{tc.sub}, c.args...)...)
				if code != 1 || !strings.Contains(errOut, c.stderr) {
					t.Errorf("%q: exit %d, stderr %q; want 1 and %q", c.args, code, errOut, c.stderr)
				}
			}
		})
	}
}

// TestMainUsageErrors: a bad flag, a bad -run pattern or -h exits 2
// with the subcommand's usage.
func TestMainUsageErrors(t *testing.T) {
	for _, tc := range subTests {
		t.Run(tc.sub, func(t *testing.T) {
			for _, args := range [][]string{{"-nosuchflag"}, {"-run", "("}, {"-h"}} {
				_, errOut, code := runMain(t, append([]string{tc.sub}, args...)...)
				if code != 2 || !strings.Contains(errOut, "mtstat "+tc.sub) {
					t.Errorf("%q: exit %d, stderr %q; want 2 (usage error)", args, code, errOut)
				}
			}
		})
	}
}

func TestMainSubcommandUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"nosuch"}, {"-run", "x"}, {"run"}} {
		_, errOut, code := runMain(t, args...)
		if code != 2 || !strings.Contains(errOut, "usage: mtstat {pf|cpi|span}") {
			t.Errorf("%q: exit %d, stderr %q; want 2 and the usage line", args, code, errOut)
		}
	}
}

func TestMainByRunTables(t *testing.T) {
	out, errOut, code := runMain(t, "span", "-byrun", writeSample(t, spanSample))
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errOut)
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
