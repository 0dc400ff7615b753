package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// reqSpec is one scheduled request: which geometry it asks for, which
// charge vector, and whether the geometry is one the server has never seen.
type reqSpec struct {
	geomSeed   int64
	chargeSeed int64
	cold       bool
}

// Geometry seeds. Warm geometry k is warmGeomBase+2k; a run's cold
// geometries start at coldGeomBase and step by 2, offset by the run seed so
// no two runs share one (each geometry uses seed and seed+1, the server's
// source/target convention).
const (
	warmGeomBase = 101
	coldGeomBase = 1 << 32
)

// mixSpec shapes a request mix: the share of cold requests, the number of
// primed (warm) geometries and the Zipf exponent of their popularity.
type mixSpec struct {
	coldFrac float64
	warm     int
	zipfS    float64
}

// mixer draws a seeded request sequence. Cold requests are periodic: one
// in every round(1/coldFrac), at a seeded phase, so any window of the
// sequence carries the scheduled cold share and two cold plan builds never
// follow each other closely enough to pile up.
type mixer struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	runSeed int64
	period  int
	phase   int // position of the cold request within each period
	pos     int // requests drawn so far
}

// newMixer returns the request stream numbered stream of a run; streams of
// one run draw independent sequences.
func newMixer(seed int64, stream int64, mix mixSpec) *mixer {
	rng := rand.New(rand.NewSource(seed*7919 + stream))
	period := int(1/mix.coldFrac + 0.5)
	return &mixer{
		rng:     rng,
		zipf:    rand.NewZipf(rng, mix.zipfS, 1, uint64(mix.warm-1)),
		runSeed: seed,
		period:  period,
		phase:   rng.Intn(period),
	}
}

// next returns the stream's next request. chargeBase offsets its charge
// seed and cold geometry, so streams of one run never share either.
func (m *mixer) next(chargeBase int) reqSpec {
	s := reqSpec{chargeSeed: chargeSeed(m.runSeed, chargeBase+m.pos)}
	if m.pos%m.period == m.phase {
		s.cold = true
		s.geomSeed = coldGeomBase + (m.runSeed&0xffff)<<20 + int64(chargeBase+m.pos)*2
	} else {
		s.geomSeed = warmGeomBase + 2*int64(m.zipf.Uint64())
	}
	m.pos++
	return s
}

// arrival is one open-loop request with the time it is due, measured from
// the start of the phase.
type arrival struct {
	due  time.Duration
	spec reqSpec
}

// openSchedule returns n Poisson arrivals at rate (requests per second),
// the first due at time 0, with requests drawn from mix. The same seed
// gives the same schedule. Its charge seeds count from 0; the run's other
// request streams offset theirs.
func openSchedule(seed int64, n int, rate float64, mix mixSpec) []arrival {
	m := newMixer(seed, 1, mix)
	gaps := rand.New(rand.NewSource(seed*104729 + 2))
	out := make([]arrival, n)
	var t float64
	for i := range out {
		out[i] = arrival{due: time.Duration(t * float64(time.Second)), spec: m.next(0)}
		t += gaps.ExpFloat64() / rate
	}
	return out
}

// timing is one open-loop request's accounting, as offsets from the start
// of the phase: when it was due, when the generator sent it, when it ended.
type timing struct {
	due, sent, done time.Duration
}

// latency is measured from the due time, so a stall that delays sending is
// charged to every request it holds back, not hidden by the late send.
func (t timing) latency() time.Duration { return t.done - t.due }

// lag is how late the generator sent the request, including its wait for
// a free connection.
func (t timing) lag() time.Duration { return t.sent - t.due }

// runOpenLoop sends request i at its due time, or as soon after as one of
// conns connections is free, calling do(i) on its own goroutine. It never
// waits for a reply before sending the next due request beyond the
// connection limit, and returns once every request has ended.
func runOpenLoop(due []time.Duration, conns int, do func(i int)) []timing {
	tim := make([]timing, len(due))
	sem := make(chan struct{}, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		if w := d - time.Since(start); w > 0 {
			time.Sleep(w)
		}
		sem <- struct{}{}
		tim[i].due = d
		tim[i].sent = time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			do(i)
			tim[i].done = time.Since(start)
			<-sem
		}(i)
	}
	wg.Wait()
	return tim
}

// runClosedLoop runs clients callers that each send their next request as
// soon as the previous one ends, for the given window. do(i) serves the
// i-th request overall. It returns how many requests were sent and the time
// until the last one ended.
func runClosedLoop(clients int, window time.Duration, do func(i int)) (int, time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window {
				do(int(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
	return int(next.Load()), time.Since(start)
}
