package main

import (
	"fmt"
	"io"

	"mtprefetch/internal/obs"
	"mtprefetch/internal/stats"
)

// srcSpans accumulates one source's spans: terminal counts, per-stage
// cycle sums over fills, and the end-to-end latency distribution.
type srcSpans struct {
	fills       uint64
	mrqMerged   uint64
	mrqRejected uint64
	dropped     uint64
	stage       [obs.NumSpanStages]uint64
	total       stats.Histogram
}

func (s *srcSpans) add(rec *obs.SpanRecord) {
	switch rec.Terminal {
	case "fill":
		s.fills++
		s.stage[obs.StageMRQ] += rec.MRQ
		s.stage[obs.StageNoCReq] += rec.NoCReq
		s.stage[obs.StageDRAMQueue] += rec.DRAMQueue
		s.stage[obs.StageDRAMService] += rec.DRAMService
		s.stage[obs.StageNoCResp] += rec.NoCResp
		s.total.Add(rec.Total)
	case "mrq_merged":
		s.mrqMerged++
	case "mrq_rejected":
		s.mrqRejected++
	case "dropped":
		s.dropped++
	}
}

// spanStat aggregates the per-request "span" lines across the input: a
// cross-run per-source rollup plus a per-run breakdown for -byrun. The
// "spansummary" trailers are skipped — percentiles rebuilt from the raw
// per-span totals aggregate exactly across runs, summary lines do not.
type spanStat struct {
	spans  uint64
	perSrc map[string]*srcSpans
	perRun map[string]map[string]*srcSpans
}

func newSpanStat() *spanStat {
	return &spanStat{
		perSrc: make(map[string]*srcSpans),
		perRun: make(map[string]map[string]*srcSpans),
	}
}

func (a *spanStat) line(p probe, b []byte) error {
	if p.Record != "span" {
		return nil
	}
	var rec obs.SpanRecord
	if err := decode(b, &rec); err != nil {
		return err
	}
	a.spans++
	rm := a.perRun[rec.Run]
	if rm == nil {
		rm = make(map[string]*srcSpans)
		a.perRun[rec.Run] = rm
	}
	for _, m := range []map[string]*srcSpans{a.perSrc, rm} {
		s := m[rec.Source]
		if s == nil {
			s = &srcSpans{}
			m[rec.Source] = s
		}
		s.add(&rec)
	}
	return nil
}

func (a *spanStat) empty() bool { return a.spans == 0 }

func (a *spanStat) write(w io.Writer, byRun bool) error {
	if _, err := fmt.Fprintf(w, "%d run(s), %d sampled span(s)\n", len(a.perRun), a.spans); err != nil {
		return err
	}
	if err := writeWaterfall(w, a.perSrc); err != nil {
		return err
	}
	if !byRun {
		return nil
	}
	for _, run := range sortedKeys(a.perRun) {
		if _, err := fmt.Fprintf(w, "\n%s\n", run); err != nil {
			return err
		}
		if err := writeWaterfall(w, a.perRun[run]); err != nil {
			return err
		}
	}
	return nil
}

// writeWaterfall renders one waterfall: a row per source with terminal
// counts, the mean end-to-end latency over fills, each stage's share of
// the filled cycles, and the latency percentiles.
func writeWaterfall(w io.Writer, perSrc map[string]*srcSpans) error {
	if _, err := fmt.Fprintf(w, "%-10s %8s %7s %7s %7s %9s %7s %8s %8s %9s %9s %8s %8s %8s\n",
		"source", "fills", "merged", "reject", "dropped", "avgtotal",
		"mrq%", "nocreq%", "dramq%", "dramsvc%", "nocresp%", "p50", "p95", "p99"); err != nil {
		return err
	}
	for _, name := range sortedKeys(perSrc) {
		s := perSrc[name]
		if _, err := fmt.Fprintf(w, "%-10s %8d %7d %7d %7d %9.1f %7s %8s %8s %9s %9s %8.1f %8.1f %8.1f\n",
			name, s.fills, s.mrqMerged, s.mrqRejected, s.dropped, s.total.Avg(),
			pct(s.stage[obs.StageMRQ], s.total.Sum), pct(s.stage[obs.StageNoCReq], s.total.Sum),
			pct(s.stage[obs.StageDRAMQueue], s.total.Sum), pct(s.stage[obs.StageDRAMService], s.total.Sum),
			pct(s.stage[obs.StageNoCResp], s.total.Sum),
			s.total.Percentile(50), s.total.Percentile(95), s.total.Percentile(99)); err != nil {
			return err
		}
	}
	return nil
}
