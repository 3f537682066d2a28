// Command mtstat post-processes the JSONL streams mtpref writes into
// tables, one subcommand per stream:
//
//	mtstat pf   [-run REGEX] [-bypc]   [FILE...]   prefetch attribution (mtpref -pfreport)
//	mtstat cpi  [-run REGEX] [-bycore] [FILE...]   CPI stacks (mtpref -cpistack)
//	mtstat span [-run REGEX] [-byrun]  [FILE...]   latency waterfall (mtpref -spans)
//
// With no FILE it reads stdin, so it composes with a sweep directly
// (mtpref prints its tables on stdout, hence the descriptor shuffle):
//
//	mtpref run gstable -spans /dev/fd/3 3>&1 >/dev/null | mtstat span
//
// Flags:
//
//	-run REGEX   only aggregate runs whose key matches REGEX
//	-bypc        pf: additionally print the per-(source, PC) breakdown
//	-bycore      cpi: additionally print raw per-core bucket counts per run
//	-byrun       span: additionally print one waterfall table per run
//
// Each subcommand decodes the record types internal/obs writes and
// skips record kinds it does not read, so a mixed stream is accepted.
//
// Exit codes: 0 ok; 1 read/parse failure or no matching records in the
// input; 2 usage error.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"

	"mtprefetch/internal/jsonl"
)

const usage = "usage: mtstat {pf|cpi|span} [-run REGEX] [-bypc|-bycore|-byrun] [FILE...]\n"

// stat is one subcommand's aggregation over its record family.
type stat interface {
	// line aggregates one non-empty line whose run key passed the -run
	// filter. A returned error aborts with exit 1.
	line(p probe, b []byte) error
	// empty reports whether nothing was aggregated, which exits 1 with a
	// diagnostic instead of printing a zero-row table that would hide a
	// wrong file, a typo'd -run regex, or a run without the stream.
	empty() bool
	// write renders the tables; detail adds the subcommand's breakdown.
	write(w io.Writer, detail bool) error
}

// subcommand describes one stream's tables.
type subcommand struct {
	detail     string // breakdown flag name
	detailHelp string
	what       string // record kinds named in the empty-input diagnostic
	mtprefFlag string // the mtpref flag that writes the stream
	newStat    func() stat
}

var subcommands = map[string]subcommand{
	"pf": {"bypc", "additionally print the per-(source, PC) breakdown",
		"pfreport/pfsummary records", "-pfreport", func() stat { return newPFStat() }},
	"cpi": {"bycore", "additionally print raw per-core bucket counts",
		"cpistack records", "-cpistack", func() stat { return newCPIStat() }},
	"span": {"byrun", "additionally print one waterfall table per run",
		"span records", "-spans", func() stat { return newSpanStat() }},
}

func main() { os.Exit(mtstat(os.Args[1:])) }

// mtstat runs one subcommand end to end and returns the exit code.
func mtstat(args []string) int {
	if len(args) == 0 {
		fmt.Fprint(os.Stderr, usage)
		return 2
	}
	sub, ok := subcommands[args[0]]
	if !ok {
		fmt.Fprintf(os.Stderr, "mtstat: unknown subcommand %q\n%s", args[0], usage)
		return 2
	}
	prog := "mtstat " + args[0]
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	runPat := fs.String("run", "", "only aggregate runs whose key matches this regexp")
	detail := fs.Bool(sub.detail, false, sub.detailHelp)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-run REGEX] [-%s] [FILE...]\n", prog, sub.detail)
	}
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	var filter *regexp.Regexp
	if *runPat != "" {
		re, err := regexp.Compile(*runPat)
		if err != nil {
			fmt.Fprintln(os.Stderr, prog+":", err)
			return 2
		}
		filter = re
	}

	st := sub.newStat()
	if err := readInputs(fs.Args(), filter, st.line); err != nil {
		fmt.Fprintln(os.Stderr, prog+":", err)
		return 1
	}
	if st.empty() {
		if filter != nil {
			fmt.Fprintf(os.Stderr, "%s: no %s match -run %q\n", prog, sub.what, *runPat)
		} else {
			fmt.Fprintf(os.Stderr, "%s: no %s in input (was the run started with %s?)\n",
				prog, sub.what, sub.mtprefFlag)
		}
		return 1
	}
	out := bufio.NewWriter(os.Stdout)
	err := st.write(out, *detail)
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, prog+":", err)
		return 1
	}
	return 0
}

// readInputs reads stdin when files is empty, else each file in turn.
func readInputs(files []string, filter *regexp.Regexp, line func(probe, []byte) error) error {
	if len(files) == 0 {
		if err := read(os.Stdin, filter, line); err != nil {
			return fmt.Errorf("stdin: %w", err)
		}
		return nil
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = read(f, filter, line)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

// probe is the envelope every obs JSONL line carries. read decodes it
// once per line to apply the -run filter and route the line; the
// subcommand then decodes the line into its obs record type.
type probe struct {
	Record string `json:"record"`
	Run    string `json:"run"`
}

// read consumes one JSONL stream, calling line for every non-empty
// input line whose run key matches filter (nil keeps all).
func read(r io.Reader, filter *regexp.Regexp, line func(probe, []byte) error) error {
	sc := jsonl.NewReader(r)
	for {
		b, err := sc.Line()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if len(b) == 0 {
			continue
		}
		var p probe
		if err := decode(b, &p); err != nil {
			return err
		}
		if filter != nil && !filter.MatchString(p.Run) {
			continue
		}
		if err := line(p, b); err != nil {
			return err
		}
	}
}

// decode unmarshals one JSONL line.
func decode(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("bad JSONL line: %w", err)
	}
	return nil
}

// sortedKeys returns m's keys in ascending order, for deterministic
// output.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// pct formats v/total as a percentage to one decimal, "-" for an empty
// denominator.
func pct(v, total uint64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(v)/float64(total)*100)
}
