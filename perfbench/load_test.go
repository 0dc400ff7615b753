package main

import (
	"reflect"
	"testing"
	"time"
)

func TestOpenScheduleIsSeeded(t *testing.T) {
	mix := serveMixed.mix
	a := openSchedule(7, 200, 4, mix)
	b := openSchedule(7, 200, 4, mix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, openSchedule(8, 200, 4, mix)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if a[0].due != 0 {
		t.Fatalf("first arrival due at %v, want 0", a[0].due)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
	}
	// Poisson at 4/s: 199 gaps average 1/4 s; allow a wide band.
	mean := a[len(a)-1].due.Seconds() / float64(len(a)-1)
	if mean < 0.2 || mean > 0.3 {
		t.Fatalf("mean gap %.3fs, want about 0.25s", mean)
	}
}

// Every run of round(1/coldFrac) requests holds exactly one cold request,
// cold geometries are never reused, and warm requests hit primed ones.
func TestMixerColdShareIsExact(t *testing.T) {
	mix := mixSpec{coldFrac: 1.0 / 12, warm: 4, zipfS: 1.2}
	m := newMixer(3, 1, mix)
	seen := map[int64]bool{}
	charges := map[int64]bool{}
	last := -1
	for blk := 0; blk < 20; blk++ {
		cold := 0
		for i := 0; i < 12; i++ {
			s := m.next(0)
			if charges[s.chargeSeed] {
				t.Fatalf("charge seed %d reused", s.chargeSeed)
			}
			charges[s.chargeSeed] = true
			if !s.cold {
				if k := (s.geomSeed - warmGeomBase) / 2; k < 0 || k >= 4 || (s.geomSeed-warmGeomBase)%2 != 0 {
					t.Fatalf("warm request for unprimed geometry %d", s.geomSeed)
				}
				continue
			}
			cold++
			if pos := blk*12 + i; last >= 0 && pos-last != 12 {
				t.Fatalf("cold requests %d apart, want 12", pos-last)
			} else {
				last = pos
			}
			if seen[s.geomSeed] {
				t.Fatalf("cold geometry %d reused", s.geomSeed)
			}
			seen[s.geomSeed] = true
		}
		if cold != 1 {
			t.Fatalf("block %d holds %d cold requests, want 1", blk, cold)
		}
	}
}

// With the one connection busy, later requests wait for it; their latency
// still counts from when they were due, and the wait shows as send lag.
func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	const service = 40 * time.Millisecond
	const gap = 10 * time.Millisecond
	due := []time.Duration{0, gap, 2 * gap, 3 * gap}
	tim := runOpenLoop(due, 1, func(int) { time.Sleep(service) })
	const slack = 30 * time.Millisecond
	for i, tm := range tim {
		if tm.due != due[i] {
			t.Fatalf("request %d: due %v, want %v", i, tm.due, due[i])
		}
		// Request i starts after the i before it finish.
		wantLat := time.Duration(i+1)*service - due[i]
		if tm.latency() < wantLat || tm.latency() > wantLat+slack {
			t.Errorf("request %d: latency %v, want about %v", i, tm.latency(), wantLat)
		}
		wantLag := time.Duration(i)*service - due[i]
		if tm.lag() < wantLag || tm.lag() > wantLag+slack {
			t.Errorf("request %d: send lag %v, want about %v", i, tm.lag(), wantLag)
		}
	}
}

func TestClosedLoopCountsEveryRequest(t *testing.T) {
	var served [64]bool
	n, el := runClosedLoop(2, 50*time.Millisecond, func(i int) {
		served[i] = true
		time.Sleep(10 * time.Millisecond)
	})
	if n < 6 || n > 14 {
		t.Fatalf("%d requests in 50ms from two clients at 10ms each", n)
	}
	for i := 0; i < n; i++ {
		if !served[i] {
			t.Fatalf("request %d of %d not served", i, n)
		}
	}
	if el < 50*time.Millisecond {
		t.Fatalf("closed loop ended after %v, before its window", el)
	}
}

func TestPercentileRule(t *testing.T) {
	if got := minSamplesFor(0.95); got != 200 {
		t.Fatalf("p95 needs %d samples for ten beyond it, want 200", got)
	}
	if !hasTail(200, 0.95) || hasTail(199, 0.95) {
		t.Fatal("p95 tail rule wrong at 199/200 samples")
	}
	if got := minSamplesFor(0.5); got != 20 {
		t.Fatalf("p50 needs %d samples, want 20", got)
	}
	if p, ok := highestTailPercentile(250); !ok || p != 0.96 {
		t.Fatalf("highest percentile of 250 samples = %v %v, want 0.96", p, ok)
	}
	if _, ok := highestTailPercentile(10); ok {
		t.Fatal("10 samples cannot have ten beyond any percentile")
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200 .. 1, unsorted input
	}
	if got := nearestRank(xs, 0.95); got != 190 {
		t.Fatalf("p95 of 1..200 = %v, want 190", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}
