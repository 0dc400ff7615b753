package amt

import (
	"sync/atomic"
	"testing"
	"time"
)

// sendN fires n parcels from locality 0 to locality 1 and returns how many
// times each action ran plus the run's stats.
func sendN(t *testing.T, cfg Config, n int) ([]int64, Stats) {
	t.Helper()
	rt := New(cfg)
	runs := make([]int64, n)
	stats := rt.Run(func() {
		rt.Locality(0).Spawn(func(w *Worker) {
			for i := 0; i < n; i++ {
				i := i
				w.SendParcel(1, 64, func(w2 *Worker) {
					atomic.AddInt64(&runs[i], 1)
				})
			}
		})
	})
	return runs, stats
}

func assertExactlyOnce(t *testing.T, runs []int64) {
	t.Helper()
	for i, r := range runs {
		if r != 1 {
			t.Fatalf("parcel %d action ran %d times, want exactly 1", i, r)
		}
	}
}

func TestPerfectTransportIsBypassed(t *testing.T) {
	runs, stats := sendN(t, Config{Localities: 2, Workers: 2}, 50)
	assertExactlyOnce(t, runs)
	tr := stats.Transport
	if tr.Sent != 0 || tr.Retried != 0 || tr.Deduped != 0 {
		t.Errorf("perfect zero-latency wire took the reliable path: %+v", tr)
	}
	if stats.ParcelsSent != 50 {
		t.Errorf("parcelsSent = %d, want 50", stats.ParcelsSent)
	}
}

func TestReliableDeliveryUnderDrop(t *testing.T) {
	const n = 200
	cfg := Config{
		Localities: 2, Workers: 2, Seed: 1,
		Transport: NewFaultyTransport(FaultProfile{Seed: 1, Drop: 0.3}),
		Delivery:  DeliveryConfig{RetryBase: time.Millisecond, Deadline: 20 * time.Second},
	}
	runs, stats := sendN(t, cfg, n)
	assertExactlyOnce(t, runs)
	tr := stats.Transport
	if tr.Sent != n {
		t.Errorf("sent = %d, want %d", tr.Sent, n)
	}
	if tr.Delivered != n {
		t.Errorf("delivered = %d, want %d", tr.Delivered, n)
	}
	if tr.Dropped == 0 {
		t.Error("30%% drop rate injected no drops")
	}
	if tr.Retried == 0 {
		t.Error("drops recovered without a single retry")
	}
	if tr.DeadlineExceeded != 0 {
		t.Errorf("%d parcels exceeded the deadline", tr.DeadlineExceeded)
	}
	if tr.Acked != n {
		t.Errorf("acked = %d, want %d", tr.Acked, n)
	}
}

func TestDedupUnderDuplication(t *testing.T) {
	const n = 200
	cfg := Config{
		Localities: 2, Workers: 2, Seed: 2,
		Transport: NewFaultyTransport(FaultProfile{Seed: 2, Duplicate: 0.5}),
	}
	runs, stats := sendN(t, cfg, n)
	assertExactlyOnce(t, runs)
	tr := stats.Transport
	if tr.Duplicated == 0 {
		t.Error("50%% duplication injected no duplicates")
	}
	if tr.Deduped == 0 {
		t.Error("duplicated deliveries were not deduplicated")
	}
}

func TestReorderAndDelayStillDeliverAll(t *testing.T) {
	const n = 100
	cfg := Config{
		Localities: 3, Workers: 2, Seed: 3,
		Transport: NewFaultyTransport(FaultProfile{
			Seed: 3, Delay: 200 * time.Microsecond,
			Reorder: true, ReorderJitter: 2 * time.Millisecond,
		}),
	}
	rt := New(cfg)
	runs := make([]int64, n)
	rt.Run(func() {
		rt.Locality(0).Spawn(func(w *Worker) {
			for i := 0; i < n; i++ {
				i := i
				w.SendParcel(1+i%2, 64, func(w2 *Worker) {
					atomic.AddInt64(&runs[i], 1)
				})
			}
		})
	})
	assertExactlyOnce(t, runs)
}

func TestSlowRankDelaysItsParcels(t *testing.T) {
	const pause = 10 * time.Millisecond
	cfg := Config{
		Localities: 2, Workers: 1, Seed: 4,
		Transport: NewFaultyTransport(FaultProfile{Seed: 4, SlowRank: 1, SlowDelay: pause}),
	}
	rt := New(cfg)
	start := time.Now()
	var arrived time.Duration
	rt.Run(func() {
		rt.Locality(0).Spawn(func(w *Worker) {
			w.SendParcel(1, 8, func(w2 *Worker) { arrived = time.Since(start) })
		})
	})
	if arrived < pause {
		t.Errorf("parcel to the paused rank arrived after %v, want >= %v", arrived, pause)
	}
}

// TestDeliveryDeadlineExceeded: with every message dropped the sender must
// eventually give up, count the failure, and let the runtime drain rather
// than hang.
func TestDeliveryDeadlineExceeded(t *testing.T) {
	const n = 5
	cfg := Config{
		Localities: 2, Workers: 1, Seed: 5,
		Transport: NewFaultyTransport(FaultProfile{Seed: 5, Drop: 1.0}),
		Delivery: DeliveryConfig{
			RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
			Deadline: 50 * time.Millisecond,
		},
	}
	done := make(chan struct{})
	var runs []int64
	var stats Stats
	go func() {
		runs, stats = sendN(t, cfg, n)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("runtime hung on undeliverable parcels")
	}
	for i, r := range runs {
		if r != 0 {
			t.Errorf("parcel %d ran %d times over a fully lossy wire", i, r)
		}
	}
	if stats.Transport.DeadlineExceeded != n {
		t.Errorf("deadlineExceeded = %d, want %d", stats.Transport.DeadlineExceeded, n)
	}
}
