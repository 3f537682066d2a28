package obs

import (
	"bytes"
	"fmt"
	"io"
	"sync"
)

// Sink fans a sequence of simulation runs into shared output files: up
// to four per-run JSONL streams (metrics, pfreport, cpistack, spans)
// and a single Chrome trace file in which each run is one process. The
// experiment harness holds one Sink per invocation and attaches an
// Observer to every simulation it launches.
//
// Sink is safe for concurrent use: the parallel harness finishes runs
// from many goroutines. Each run's records are buffered per stream and
// flushed as one write per stream, and its trace events are appended
// under the sink lock, so concurrent runs never interleave inside each
// other's records. Finish is idempotent per run key — a retried or
// duplicated completion records nothing the second time.
//
// A nil *Sink is fully disabled: Observer returns nil (which in turn
// disables sampling and tracing inside the simulator) and Finish/Close do
// nothing, so the harness carries no conditionals.
type Sink struct {
	cfg Config

	mu      sync.Mutex
	trace   *TraceWriter
	streams []stream // enabled JSONL streams, in output order
	runs    int
	done    map[string]bool
	closed  bool
}

// stream is one per-run JSONL output: its artifact name, the shared
// file, and how a run's observer renders into it. Every component's
// WriteJSONL is nil-safe, so a run whose observer lacks the component
// (a -metrics sink with sampling off) records an empty blob.
type stream struct {
	name   string
	w      io.Writer
	render func(o *Observer, w io.Writer, run string) error
}

// NewSink builds a sink. metrics, trace, pfreport, cpistack, and spans
// may each be nil to disable that output; when all are nil the sink
// itself is nil (disabled).
func NewSink(metrics, trace, pfreport, cpistack, spans io.Writer, cfg Config) (*Sink, error) {
	s := &Sink{cfg: cfg, done: make(map[string]bool)}
	for _, st := range []stream{
		{"metrics", metrics, func(o *Observer, w io.Writer, run string) error {
			return o.Sampler.WriteJSONL(w, map[string]string{"run": run})
		}},
		{"pfreport", pfreport, func(o *Observer, w io.Writer, run string) error { return o.PF.WriteJSONL(w, run) }},
		{"cpistack", cpistack, func(o *Observer, w io.Writer, run string) error { return o.CPI.WriteJSONL(w, run) }},
		{"spans", spans, func(o *Observer, w io.Writer, run string) error { return o.Spans.WriteJSONL(w, run) }},
	} {
		if st.w != nil {
			s.streams = append(s.streams, st)
		}
	}
	if trace == nil && len(s.streams) == 0 {
		return nil, nil
	}
	if metrics == nil {
		s.cfg.SampleEvery = 0
	}
	if trace != nil {
		if s.cfg.TraceCapacity == 0 {
			s.cfg.TraceCapacity = DefaultTraceCapacity
		}
		tw, err := NewTraceWriter(trace)
		if err != nil {
			return nil, err
		}
		s.trace = tw
	} else {
		s.cfg.TraceCapacity = 0
	}
	s.cfg.PFReport = pfreport != nil
	s.cfg.CPIStack = cpistack != nil
	s.cfg.Spans = spans != nil
	return s, nil
}

// Observer creates a fresh Observer for one run, or nil when the sink is
// disabled.
func (s *Sink) Observer() *Observer {
	if s == nil {
		return nil
	}
	return New(s.cfg)
}

// Streams names the JSONL streams this sink records — the artifact
// blobs a stored run must carry before it can substitute for a live
// one. Tracing is excluded: it has no per-run replayable form (see
// NeedsLive). A nil sink records nothing.
func (s *Sink) Streams() []string {
	if s == nil {
		return nil
	}
	var out []string
	for _, st := range s.streams {
		out = append(out, st.name)
	}
	return out
}

// NeedsLive reports whether this sink requires live simulations: the
// Chrome-trace stream serialises each run's event ring directly into a
// shared JSON array, which cannot be reproduced from stored artifacts,
// so a tracing sweep must bypass result-store reads to keep its trace
// complete.
func (s *Sink) NeedsLive() bool { return s != nil && s.trace != nil }

// Capture renders one finished run's enabled JSONL streams into named
// artifact blobs — byte-for-byte what Finish appends to the shared
// files — for committing alongside the Result in a persistent store.
// A nil sink or observer captures nothing.
func (s *Sink) Capture(runKey string, o *Observer) (map[string][]byte, error) {
	if s == nil || o == nil {
		return nil, nil
	}
	out := make(map[string][]byte)
	for _, st := range s.streams {
		var buf bytes.Buffer
		if err := st.render(o, &buf, runKey); err != nil {
			return nil, fmt.Errorf("obs: %s for %s: %w", st.name, runKey, err)
		}
		out[st.name] = buf.Bytes()
	}
	return out, nil
}

// FinishStored records a run from previously captured artifacts — the
// store-hit path — under the same per-key idempotency and post-Close
// inertness as Finish. Only streams this sink has enabled are written;
// the caller guarantees those are present (store.Get's need parameter).
func (s *Sink) FinishStored(runKey string, artifacts map[string][]byte) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.done[runKey] {
		return nil
	}
	s.done[runKey] = true
	if err := s.write(runKey, artifacts); err != nil {
		return err
	}
	s.runs++
	return nil
}

// Finish flushes one completed run's observer into the shared files,
// tagging its JSONL records and trace process with the run key. A key
// that was already recorded (or a Finish after Close) is a no-op, so
// memoised runs are recorded exactly once, under the key of their first
// completed execution.
func (s *Sink) Finish(runKey string, o *Observer) error {
	if s == nil || o == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.done[runKey] {
		return nil
	}
	// Mark before writing: a failed write aborts the harness, and a
	// retry must not append a second partial record to the shared files.
	s.done[runKey] = true
	artifacts, err := s.Capture(runKey, o)
	if err != nil {
		return err
	}
	if err := s.write(runKey, artifacts); err != nil {
		return err
	}
	if s.trace != nil && o.Tracer != nil {
		if err := s.trace.AddRun(s.runs, runKey, "core", o.Tracer); err != nil {
			return fmt.Errorf("obs: trace for %s: %w", runKey, err)
		}
	}
	if s.trace != nil && o.Spans != nil {
		// Flow events come from the span records, never from the Tracer
		// ring: enabling spans changes nothing in the ring, it only
		// appends this extra flow section per run.
		if err := s.trace.AddSpanFlows(s.runs, o.Spans); err != nil {
			return fmt.Errorf("obs: span flows for %s: %w", runKey, err)
		}
	}
	s.runs++
	return nil
}

// write appends one run's artifact blobs to the enabled streams' shared
// files, in stream order. The caller holds s.mu.
func (s *Sink) write(runKey string, artifacts map[string][]byte) error {
	for _, st := range s.streams {
		if b := artifacts[st.name]; len(b) > 0 {
			if _, err := st.w.Write(b); err != nil {
				return fmt.Errorf("obs: %s for %s: %w", st.name, runKey, err)
			}
		}
	}
	return nil
}

// Close finalizes the trace file's JSON array. Later Finish calls are
// no-ops, so stragglers from an aborted parallel experiment cannot write
// past the closing bracket.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return s.trace.Close()
}
