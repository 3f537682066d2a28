package main

import (
	"fmt"
	"io"
	"os"

	"mtprefetch/internal/memreq"
	"mtprefetch/internal/obs"
)

// pfStat aggregates "pfreport" bucket lines and "pfsummary" trailers
// across runs: a per-source rollup for the summary table and a rebuilt
// obs.PFReport, which also carries the summed coverage denominator, for
// the per-(source, PC) breakdown.
type pfStat struct {
	perSrc map[string]*obs.PFCounts
	rep    *obs.PFReport
	runs   map[string]bool // distinct run keys seen
}

func newPFStat() *pfStat {
	return &pfStat{
		perSrc: make(map[string]*obs.PFCounts),
		rep:    obs.NewPFReport(),
		runs:   make(map[string]bool),
	}
}

func (a *pfStat) line(p probe, b []byte) error {
	switch p.Record {
	case "pfreport":
		var rec obs.PFRecord
		if err := decode(b, &rec); err != nil {
			return err
		}
		s := a.perSrc[rec.Source]
		if s == nil {
			s = &obs.PFCounts{}
			a.perSrc[rec.Source] = s
		}
		s.Add(&rec.PFCounts)
		if src, ok := memreq.ParseSource(rec.Source); ok {
			a.rep.Add(obs.PFKey{Source: src, PC: rec.PC}, rec.PFCounts)
		} else {
			// Unknown source names (a newer writer) still roll up per
			// source; only the per-PC breakdown needs the enum.
			fmt.Fprintf(os.Stderr, "mtstat pf: unknown source %q (per-PC breakdown will omit it)\n", rec.Source)
		}
	case "pfsummary":
		var rec obs.PFSummary
		if err := decode(b, &rec); err != nil {
			return err
		}
		a.runs[rec.Run] = true
		a.rep.AddDemandTransactions(rec.DemandTransactions)
	}
	return nil
}

func (a *pfStat) empty() bool { return len(a.runs) == 0 && len(a.perSrc) == 0 }

func (a *pfStat) write(w io.Writer, byPC bool) error {
	if err := a.writeSummary(w); err != nil {
		return err
	}
	if !byPC {
		return nil
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return a.rep.WriteTable(w)
}

// writeSummary renders the per-source rollup: the paper's accuracy
// (used/issued), coverage (hits/demand transactions), merge ratio
// (demand-into-prefetch merges/issued, the Eq. 6 lateness signal), and
// early-eviction rate (early/used, Eq. 5), plus the mean throttle degree
// in force at issue.
func (a *pfStat) writeSummary(w io.Writer) error {
	demand := a.rep.DemandTransactions()
	if _, err := fmt.Fprintf(w, "%d run(s), %d demand transactions\n", len(a.runs), demand); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s %10s %10s %8s %8s %8s %8s %8s %9s %9s %7s\n",
		"source", "generated", "issued", "useful", "late", "early", "accuracy",
		"coverage", "mergeratio", "earlyrate", "degree"); err != nil {
		return err
	}
	for _, n := range sortedKeys(a.perSrc) {
		c := a.perSrc[n]
		used := c.Useful + c.Late
		if _, err := fmt.Fprintf(w, "%-10s %10d %10d %8d %8d %8d %8s %8s %9s %9s %7s\n",
			n, c.Generated, c.Issued, c.Useful, c.Late, c.EarlyEvicted,
			ratio(used, c.Issued), ratio(c.Hits, demand),
			ratio(c.DemandMerges, c.Issued), ratio(c.EarlyEvicted, used),
			mean(c.DegreeSum, c.Issued)); err != nil {
			return err
		}
	}
	return nil
}

func ratio(n, d uint64) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(n)/float64(d))
}

func mean(sum, n uint64) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(sum)/float64(n))
}
