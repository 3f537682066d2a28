package main

import (
	"slices"
	"strings"
	"time"
)

// This file keeps the host's speed out of the host-time metrics.
//
// The benchmark runs on shared hosts whose speed drifts with the
// neighbours' load: a fixed loop of integer work takes anywhere from one
// to two times its quiet-host time, both from one millisecond to the next
// and from one minute to the next. A median over passes removes the fast
// part of that but not the slow part, so two runs of the same code minutes
// apart differ by tens of percent. Every pass therefore also times a
// fixed reference kernel, between or alongside the program's calls, and
// scales the pass's host times by how long the kernel took in it: a host
// time is reported in seconds at the reference speed, the speed of a host
// that runs one reference unit in refNominal. The program's own speed
// moves these figures; the host's, to the extent the kernel shares it,
// does not. The raw times are on the # line.

// refNominal is the reference unit's time at the reference speed: about
// its median on the 2-vCPU Xeon VM the benchmark was tuned on.
const refNominal = 0.003 // s

// refTableLen sizes the kernel's lookup table: 256 KiB, so it stays in
// the caches the program shares with it without crowding them.
const refTableLen = 1 << 16

var refTable = func() []uint32 {
	t := make([]uint32, refTableLen)
	for i := range t {
		t[i] = uint32(i) * 2654435761
	}
	return t
}()

// refKernel is one reference unit: dependent integer mixing, table
// lookups and data-dependent branches, like the simulator's inner loops
// but fixed forever. Its result only keeps the compiler from dropping it.
func refKernel() uint64 {
	x := uint64(1)
	var s uint64
	for i := 0; i < 250_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := refTable[(x>>33)&(refTableLen-1)]
		if v&1 == 0 {
			s += uint64(v)
		} else {
			s ^= x
		}
	}
	return s
}

// refClock collects a pass's reference-unit times.
type refClock struct {
	units []float64
	sink  uint64
}

// newRefClock sizes the clock for n units, so ticking does not allocate
// inside the timed section.
func newRefClock(n int) *refClock {
	return &refClock{units: make([]float64, 0, n)}
}

// tick runs and times one reference unit. It first reads the table once,
// untimed, so what the program left in the caches does not change the
// unit's time.
func (c *refClock) tick() {
	for _, v := range refTable {
		c.sink += uint64(v)
	}
	t := time.Now()
	c.sink += refKernel()
	c.units = append(c.units, time.Since(t).Seconds())
}

// sampleEvery times reference units in a background goroutine, one at
// once and then one every d, until the returned stop is called; once stop
// returns, at least one unit is in. A harness pass keeps every CPU busy
// for seconds in one call, so units between its calls could not follow
// the host's speed through it; the background units take about 3% of
// one CPU.
func (c *refClock) sampleEvery(d time.Duration) (stop func()) {
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		c.tick()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.tick()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// unit is the pass's median reference-unit time.
func (c *refClock) unit() float64 {
	return median(c.units)
}

// normalize rescales the pass's host times to seconds at the reference
// speed, keeping the raw wall time and unit for the # line.
func (p *passResult) normalize() {
	p.rawWall = p.wall
	f := refNominal / p.refUnit
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	p.setup, p.newTime, p.wall = scale(p.setup), scale(p.newTime), scale(p.wall)
	for i := range p.runs {
		p.runs[i].seconds *= f
	}
	for id, s := range p.expSecs {
		p.expSecs[id] = s * f
	}
	for _, s := range p.streams {
		s.busy = scale(s.busy)
	}
}

// refClockFrame prefixes the reference clock's methods as profiles name
// them. Samples under them (the kernel, the table read before each unit,
// the background goroutine) are the benchmark's clock, not the program,
// and are left out of the attribution.
const refClockFrame = "main.(*refClock)."

func isRefSample(frames []string) bool {
	return slices.ContainsFunc(frames, func(f string) bool { return strings.HasPrefix(f, refClockFrame) })
}
