package amt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recordingWire is an unreliable transport that swallows every data message
// (recording its send time) so the delivery layer's retransmission schedule
// can be observed directly.
type recordingWire struct {
	mu    sync.Mutex
	times []time.Time
}

func (r *recordingWire) Name() string     { return "recording" }
func (r *recordingWire) Reliable() bool   { return false }
func (r *recordingWire) Stats() WireStats { return WireStats{} }

func (r *recordingWire) Send(m Message) {
	if m.Ack {
		return
	}
	r.mu.Lock()
	r.times = append(r.times, time.Now())
	r.mu.Unlock()
}

func (r *recordingWire) sends() []time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Time(nil), r.times...)
}

// The retransmission schedule is a contract the chaos suites lean on: each
// gap at least the current backoff step, at most the step widened by the
// jitter factor (plus scheduling slack), the step doubling up to RetryMax
// and then pinned there, and the whole loop ending at the deadline with the
// parcel counted abandoned — not retried forever, not given up early.
func TestDeliveryBackoffEnvelope(t *testing.T) {
	const (
		base     = 20 * time.Millisecond
		max      = 80 * time.Millisecond
		jitter   = 0.5
		deadline = 700 * time.Millisecond
		slack    = 60 * time.Millisecond // timer-firing lateness under CI load
	)
	rw := &recordingWire{}
	rt := New(Config{
		World: 2, Rank: 0, Workers: 1, Seed: 3, Transport: rw,
		Delivery: DeliveryConfig{RetryBase: base, RetryMax: max, RetryJitter: jitter, Deadline: deadline},
	})
	start := time.Now()
	stats := rt.Run(func() {
		rt.SendWire(1, 1, 0, []byte("never acked"))
	})
	elapsed := time.Since(start)

	if got := stats.Transport.DeadlineExceeded; got != 1 {
		t.Fatalf("DeadlineExceeded = %d, want 1", got)
	}
	if stats.Transport.Acked != 0 {
		t.Fatalf("Acked = %d, want 0", stats.Transport.Acked)
	}
	if elapsed < deadline {
		t.Fatalf("run settled after %v, before the %v deadline", elapsed, deadline)
	}

	times := rw.sends()
	if len(times) < 4 {
		t.Fatalf("only %d transmissions before the deadline; backoff cap not honored?", len(times))
	}
	if int64(stats.Transport.Retried) != int64(len(times)-1) {
		t.Fatalf("Retried = %d, but %d retransmissions hit the wire", stats.Transport.Retried, len(times)-1)
	}
	// Expected backoff step per gap: base doubling to max, then flat.
	step := base
	for i := 1; i < len(times); i++ {
		gap := times[i].Sub(times[i-1])
		lo := step - 2*time.Millisecond // timer granularity
		hi := time.Duration(float64(step)*(1+jitter)) + slack
		if gap < lo || gap > hi {
			t.Fatalf("gap %d = %v outside jittered envelope [%v, %v] (step %v)", i, gap, lo, hi, step)
		}
		if step < max {
			step *= 2
			if step > max {
				step = max
			}
		}
	}
	// The loop must stop at the deadline: the last transmission fits inside
	// it, and the count is bounded by the capped schedule.
	if last := times[len(times)-1].Sub(times[0]); last > deadline+time.Duration(float64(max)*(1+jitter))+slack {
		t.Fatalf("last retransmission at %v, past the deadline window", last)
	}
	if len(times) > 16 {
		t.Fatalf("%d transmissions in %v: backoff not slowing down", len(times), deadline)
	}
}

// An ack settles the entry and stops the retransmission loop immediately.
func TestDeliveryBackoffStopsOnAck(t *testing.T) {
	rw := &recordingWire{}
	rt := New(Config{
		World: 2, Rank: 0, Workers: 1, Seed: 4, Transport: rw,
		Delivery: DeliveryConfig{RetryBase: 10 * time.Millisecond, RetryMax: 40 * time.Millisecond, Deadline: 5 * time.Second},
	})
	start := time.Now()
	stats := rt.Run(func() {
		rt.SendWire(1, 1, 0, []byte("acked late"))
		// Let two copies hit the wire, then deliver the ack.
		go func() {
			for {
				if len(rw.sends()) >= 2 {
					// The ack frame as rank 1 would emit it: src 1, dst 0,
					// settling rank 0's entry for (0→1, seq 1).
					rt.DeliverWireFrame(Frame{Flags: FlagAck, Src: 1, Dst: 0, Seq: 1})
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	})
	elapsed := time.Since(start)
	if stats.Transport.Acked != 1 {
		t.Fatalf("Acked = %d, want 1", stats.Transport.Acked)
	}
	if stats.Transport.DeadlineExceeded != 0 {
		t.Fatalf("DeadlineExceeded = %d, want 0", stats.Transport.DeadlineExceeded)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("run took %v; ack did not stop the retransmission loop", elapsed)
	}
	n := len(rw.sends())
	time.Sleep(100 * time.Millisecond)
	if m := len(rw.sends()); m != n {
		t.Fatalf("%d transmissions after the ack settled the entry", m-n)
	}
}

// TestSeverStopsRetransmissionToDeadRank is the delivery-teardown test: a
// dead rank never acks, so senders retransmit until the death verdict
// severs its endpoints (SeverRank) — at which point every unacked entry
// settles (Severed), the retry timers die (Retried stops moving), and no
// goroutine is leaked spinning on the dead destination.
func TestSeverStopsRetransmissionToDeadRank(t *testing.T) {
	rt := New(Config{
		Localities: 2, Workers: 1,
		// A wire that loses everything: rank 1 is silent from the sender's
		// side, exactly like a crashed process, so every parcel retransmits
		// until the sever settles it.
		Transport: NewFaultyTransport(FaultProfile{Seed: 1, Drop: 1.0}),
		Delivery: DeliveryConfig{
			RetryBase: time.Millisecond,
			RetryMax:  4 * time.Millisecond,
			Deadline:  120 * time.Second,
		},
	})
	var ranOnDead atomic.Int64
	stats := rt.Run(func() {
		rt.Locality(0).Spawn(func(w *Worker) {
			for i := 0; i < 8; i++ {
				w.SendParcel(1, 100, func(*Worker) { ranOnDead.Add(1) })
			}
			// The verdict lands 25ms later, leaving the parcels
			// retransmitting to a silent rank until then.
			time.AfterFunc(25*time.Millisecond, func() { rt.SeverRank(1) })
		})
	})
	if ranOnDead.Load() != 0 {
		t.Fatalf("%d parcels executed on a dead rank", ranOnDead.Load())
	}
	ts := stats.Transport
	if ts.Severed == 0 {
		t.Error("no parcels were settled by the sever")
	}
	if ts.Retried == 0 {
		t.Error("no retransmissions before the verdict; the loop was never exercised")
	}
	if ts.DeadlineExceeded != 0 {
		t.Errorf("%d parcels hit the deadline; sever should have settled them first", ts.DeadlineExceeded)
	}
	// Leak check: all retry timers must be dead. Any survivor would bump
	// Retried after the run.
	before := rt.StatsNow().Transport.Retried
	time.Sleep(30 * time.Millisecond)
	if after := rt.StatsNow().Transport.Retried; after != before {
		t.Errorf("retransmissions continued after the run: %d -> %d", before, after)
	}
}
