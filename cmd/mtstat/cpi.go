package main

import (
	"fmt"
	"io"

	"mtprefetch/internal/obs"
)

// cpiRun accumulates one run's CPI stack. Rows are keyed by core id, so
// memory follows the number of lines read rather than the largest id
// a line names.
type cpiRun struct {
	cores  map[int]*[obs.NumBuckets]uint64
	totals [obs.NumBuckets]uint64
}

// cpiStat aggregates the per-core "cpistack" lines across the input;
// every other record kind ("cpiepoch", "cpitol", "cpisummary", epoch
// samples from a mixed stream) is skipped — the per-core lifetime lines
// carry everything the tables need.
type cpiStat struct {
	runs map[string]*cpiRun
}

func newCPIStat() *cpiStat { return &cpiStat{runs: make(map[string]*cpiRun)} }

func (a *cpiStat) line(p probe, b []byte) error {
	if p.Record != "cpistack" {
		return nil
	}
	var rec obs.CPICoreRecord
	if err := decode(b, &rec); err != nil {
		return err
	}
	if rec.Core < 0 {
		return fmt.Errorf("bad JSONL line: negative core %d", rec.Core)
	}
	ra := a.runs[rec.Run]
	if ra == nil {
		ra = &cpiRun{cores: make(map[int]*[obs.NumBuckets]uint64)}
		a.runs[rec.Run] = ra
	}
	c := ra.cores[rec.Core]
	if c == nil {
		c = new([obs.NumBuckets]uint64)
		ra.cores[rec.Core] = c
	}
	for i, v := range rec.Array() {
		c[i] += v
		ra.totals[i] += v
	}
	return nil
}

func (a *cpiStat) empty() bool { return len(a.runs) == 0 }

func (a *cpiStat) write(w io.Writer, byCore bool) error {
	if err := a.writeSummary(w); err != nil {
		return err
	}
	if byCore {
		return a.writeByCore(w)
	}
	return nil
}

func sum(b *[obs.NumBuckets]uint64) uint64 {
	var n uint64
	for _, v := range b {
		n += v
	}
	return n
}

// writeSummary renders one row per run: core count, total attributed
// cycles, and each bucket's share of them.
func (a *cpiStat) writeSummary(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%d run(s)\n", len(a.runs)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-36s %5s %14s", "run", "cores", "cycles"); err != nil {
		return err
	}
	for b := obs.Bucket(0); b < obs.NumBuckets; b++ {
		if _, err := fmt.Fprintf(w, " %11s", b.String()+"%"); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, k := range sortedKeys(a.runs) {
		ra := a.runs[k]
		total := sum(&ra.totals)
		if _, err := fmt.Fprintf(w, "%-36s %5d %14d", k, len(ra.cores), total); err != nil {
			return err
		}
		for _, v := range ra.totals {
			if _, err := fmt.Fprintf(w, " %11s", pct(v, total)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// writeByCore renders raw per-core bucket counts for every run, in core
// order.
func (a *cpiStat) writeByCore(w io.Writer) error {
	for _, k := range sortedKeys(a.runs) {
		ra := a.runs[k]
		if _, err := fmt.Fprintf(w, "\n%s\n", k); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%-5s %14s", "core", "cycles"); err != nil {
			return err
		}
		for b := obs.Bucket(0); b < obs.NumBuckets; b++ {
			if _, err := fmt.Fprintf(w, " %12s", b); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		for _, id := range sortedKeys(ra.cores) {
			c := ra.cores[id]
			if _, err := fmt.Fprintf(w, "%-5d %14d", id, sum(c)); err != nil {
				return err
			}
			for _, v := range c {
				if _, err := fmt.Fprintf(w, " %12d", v); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}
