package core

import (
	"bytes"
	"reflect"
	"testing"

	"mtprefetch/internal/memreq"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/swpref"
)

// This file holds the differential equivalence tests for event-driven
// cycle skipping: every supported configuration must produce a Result
// and an epoch-sample stream byte-identical to a run that visits every
// cycle. This is the contract that lets skipping be on by default.
// TestSkipStreamEquivalence extends it to every observability stream.

// runDiff executes o with skipping enabled and disabled and returns
// (skip result, full result, skip JSONL, full JSONL, cycles skipped).
func runDiff(t *testing.T, o Options) (*Result, *Result, []byte, []byte, uint64) {
	t.Helper()
	run := func(noskip bool) (*Result, []byte, uint64) {
		oo := o
		oo.NoCycleSkip = noskip
		oo.Obs = obs.New(obs.Config{SampleEvery: 512})
		s, err := New(oo)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := oo.Obs.Sampler.WriteJSONL(&buf, map[string]string{"bench": res.Benchmark}); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes(), s.SkippedCycles()
	}
	skip, skipJSON, skipped := run(false)
	full, fullJSON, fullSkipped := run(true)
	if fullSkipped != 0 {
		t.Fatalf("NoCycleSkip run still skipped %d cycles", fullSkipped)
	}
	return skip, full, skipJSON, fullJSON, skipped
}

// assertIdentical is the shared comparison: identical Result structs and
// identical epoch-sample streams.
func assertIdentical(t *testing.T, name string, o Options) {
	t.Helper()
	skip, full, skipJSON, fullJSON, skipped := runDiff(t, o)
	if !reflect.DeepEqual(skip, full) {
		t.Errorf("%s: results diverge with cycle skipping\nskip: %+v\nfull: %+v", name, skip, full)
	}
	if !bytes.Equal(skipJSON, fullJSON) {
		t.Errorf("%s: epoch samples diverge with cycle skipping\nskip: %s\nfull: %s", name, skipJSON, fullJSON)
	}
	if skipped == 0 {
		t.Logf("%s: note: no cycles were skippable", name)
	}
}

// TestSkipEquivalenceMatrix sweeps the Options space: baseline, both
// software transforms, hardware prefetchers with throttling and
// filtering, perfect memory, and the invariant sweep.
func TestSkipEquivalenceMatrix(t *testing.T) {
	cases := []struct {
		name string
		opts func(t *testing.T) Options
	}{
		{"baseline", func(t *testing.T) Options {
			return Options{Workload: tiny(t, "monte")}
		}},
		{"mtswp", func(t *testing.T) Options {
			return Options{Workload: tiny(t, "mersenne"), Software: swpref.MTSWP}
		}},
		{"swp-throttle", func(t *testing.T) Options {
			return Options{Workload: tiny(t, "stream"), Software: swpref.Stride, Throttle: true}
		}},
		{"mthwp", func(t *testing.T) Options {
			return Options{Workload: tiny(t, "conv"), Hardware: func() prefetch.Prefetcher {
				return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
			}}
		}},
		{"stride-filter", func(t *testing.T) Options {
			return Options{Workload: tiny(t, "monte"), PollutionFilter: true,
				Hardware: func() prefetch.Prefetcher {
					return prefetch.NewStrideRPT(prefetch.StrideRPTOptions{WarpAware: true})
				}}
		}},
		{"perfect-memory", func(t *testing.T) Options {
			return Options{Workload: tiny(t, "monte"), PerfectMemory: true}
		}},
		{"checks", func(t *testing.T) Options {
			return Options{Workload: tiny(t, "stream"), Checks: true, CheckEvery: 1000}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			assertIdentical(t, tc.name, tc.opts(t))
		})
	}
}

// runStreams executes o at the given skip setting with the full
// observability bundle (spans included when spansOn), and returns the
// Result and every output stream keyed by name. SpanEvery is set low so
// tiny workloads still sample densely enough to exercise every
// lifecycle site.
func runStreams(t *testing.T, o Options, noskip, spansOn bool) (*Result, map[string]string) {
	t.Helper()
	oo := o
	oo.NoCycleSkip = noskip
	oo.Obs = obs.New(obs.Config{SampleEvery: 512, TraceCapacity: 1 << 14,
		PFReport: true, CPIStack: true, CPIEpoch: 512,
		Spans: spansOn, SpanEvery: 8})
	s, err := New(oo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string]string{}
	var buf bytes.Buffer
	if err := oo.Obs.Sampler.WriteJSONL(&buf, map[string]string{"bench": res.Benchmark}); err != nil {
		t.Fatal(err)
	}
	streams["epoch"] = buf.String()
	buf.Reset()
	if err := s.PFReport().WriteJSONL(&buf, "run"); err != nil {
		t.Fatal(err)
	}
	streams["pfreport"] = buf.String()
	buf.Reset()
	if err := s.CPIStack().WriteJSONL(&buf, "run"); err != nil {
		t.Fatal(err)
	}
	streams["cpistack"] = buf.String()
	buf.Reset()
	tw, err := obs.NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.AddRun(1, "run", "core", oo.Obs.Tracer); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	streams["trace"] = buf.String()
	if spansOn {
		buf.Reset()
		if err := s.Spans().WriteJSONL(&buf, "run"); err != nil {
			t.Fatal(err)
		}
		streams["spans"] = buf.String()
	}
	return res, streams
}

// TestSkipStreamEquivalence compares skipping against the every-cycle
// loop with attribution, cycle accounting and tracing all attached, on
// configurations that reach every stream: prefetch records and
// throttle-degree events (mthwp-throttle, swp-stride-throttle), filter
// drops, and the invariant sweep (stride-filter-checks). The Result and
// the epoch, pfreport, cpistack and Chrome-trace streams must be
// byte-identical.
func TestSkipStreamEquivalence(t *testing.T) {
	cases := []struct {
		name string
		opts func(t *testing.T) Options
	}{
		{"baseline", func(t *testing.T) Options {
			return Options{Workload: tiny(t, "monte")}
		}},
		{"mthwp-throttle", func(t *testing.T) Options {
			return Options{Workload: tiny(t, "conv"), Throttle: true,
				Hardware: func() prefetch.Prefetcher {
					return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
				}}
		}},
		{"swp-stride-throttle", func(t *testing.T) Options {
			return Options{Workload: tiny(t, "stream"), Software: swpref.Stride, Throttle: true}
		}},
		{"stride-filter-checks", func(t *testing.T) Options {
			return Options{Workload: tiny(t, "mersenne"), PollutionFilter: true,
				Checks: true, CheckEvery: 1000,
				Hardware: func() prefetch.Prefetcher {
					return prefetch.NewStrideRPT(prefetch.StrideRPTOptions{WarpAware: true})
				}}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			o := tc.opts(t)
			skipRes, skipStreams := runStreams(t, o, false, false)
			fullRes, fullStreams := runStreams(t, o, true, false)
			if !reflect.DeepEqual(skipRes, fullRes) {
				t.Errorf("results diverge with cycle skipping\nskip: %+v\nfull: %+v", skipRes, fullRes)
			}
			for name, ref := range fullStreams {
				if skipStreams[name] != ref {
					t.Errorf("%s stream diverges with cycle skipping", name)
				}
			}
		})
	}
}

// TestSkipActuallySkips guards against the skip machinery silently
// degrading into a no-op: a memory-bound run must skip a substantial
// share of its cycles.
func TestSkipActuallySkips(t *testing.T) {
	o := Options{Workload: tiny(t, "stream")}
	skip, _, _, _, skipped := runDiff(t, o)
	if skipped == 0 {
		t.Fatal("memory-bound run skipped no cycles")
	}
	if frac := float64(skipped) / float64(skip.Cycles); frac < 0.05 {
		t.Errorf("only %.1f%% of cycles skipped; the event calendar is too conservative", frac*100)
	} else {
		t.Logf("skipped %d of %d cycles (%.1f%%)", skipped, skip.Cycles, frac*100)
	}
}

// opaqueInjector implements FaultInjector but not EventSource.
type opaqueInjector struct{}

func (opaqueInjector) StallCore(uint64, int) bool                        { return false }
func (opaqueInjector) OnResponse(uint64, *memreq.Request) ResponseAction { return DeliverResponse }

// TestOpaqueInjectorDisablesSkip: a fault injector that cannot promise
// skip-awareness forces the loop to visit every cycle.
func TestOpaqueInjectorDisablesSkip(t *testing.T) {
	s, err := New(Options{Workload: tiny(t, "monte"), Inject: opaqueInjector{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.SkippedCycles() != 0 {
		t.Fatalf("opaque injector run skipped %d cycles", s.SkippedCycles())
	}
}

// TestExactTermination: the run ends on the exact cycle the machine
// drains, not the next multiple of a polling granularity — and MaxCycles
// still truncates identically with skipping on or off.
func TestExactTermination(t *testing.T) {
	spec := tiny(t, "monte")
	a := mustRun(t, Options{Workload: spec})
	b := mustRun(t, Options{Workload: spec, NoCycleSkip: true})
	if a.Cycles != b.Cycles {
		t.Fatalf("termination cycle differs: skip %d vs full %d", a.Cycles, b.Cycles)
	}
}
