package amt

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Reliable parcel delivery over an unreliable Transport: per-(src,dst)
// sequence numbers, receiver-side dedup, acks, and retransmission with
// exponential backoff + jitter under a delivery deadline. The wire contract
// is at-least-once; the dedup filter turns it into exactly-once effect, so
// every parcel's LCO inputs are applied once no matter how many copies
// arrive. Over a Transport that declares itself Reliable the whole mechanism
// is bypassed (no sequence numbers, no acks, no timers) — the hot path stays
// identical to the pre-transport runtime.

// DeliveryConfig tunes the reliable-delivery layer. The zero value picks the
// defaults noted on each field.
type DeliveryConfig struct {
	// RetryBase is the backoff before the first retransmission (default
	// 2ms); each further attempt doubles it up to RetryMax (default 64ms).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetryJitter widens each backoff by a uniform multiplicative factor in
	// [1, 1+RetryJitter], decorrelating retransmission bursts (default 0.5).
	RetryJitter float64
	// Deadline bounds how long a parcel may stay unacked before the sender
	// gives up (default 10s). A deadline-exceeded parcel is counted and its
	// action is abandoned — the evaluation will report the missing inputs.
	Deadline time.Duration
}

func (c DeliveryConfig) withDefaults() DeliveryConfig {
	if c.RetryBase <= 0 {
		c.RetryBase = 2 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 64 * time.Millisecond
	}
	if c.RetryJitter <= 0 {
		c.RetryJitter = 0.5
	}
	if c.Deadline <= 0 {
		c.Deadline = 10 * time.Second
	}
	return c
}

// TransportStats counts parcel-transport activity during one Run: the
// delivery layer's view (sent/retried/acked/deadline, delivered/deduped) plus
// the wire's own fault counters (dropped/duplicated).
type TransportStats struct {
	// Sender side.
	Sent             int64 // application parcels handed to the wire
	Retried          int64 // retransmissions
	Acked            int64 // parcels settled by an ack
	DeadlineExceeded int64 // parcels abandoned: delivery deadline or run teardown
	// Receiver side.
	Delivered int64 // first copies: the parcel action was spawned
	Deduped   int64 // redundant copies suppressed by the sequence filter
	// Crash handling.
	Severed   int64 // parcels abandoned because an endpoint rank died
	LateDrops int64 // copies arriving after the runtime shut down
	// Wire faults (from Transport.Stats).
	Dropped    int64
	Duplicated int64
	// Wire volume and connection health (from Transport.Stats): messages and
	// bytes actually carried (modeled bytes on in-process wires, encoded
	// frame bytes on socket wires), plus the socket transport's reconnect and
	// rejected-handshake counters.
	WireMessages      int64
	BytesOut, BytesIn int64
	Reconnects        int64
	HandshakeFailures int64
	StaleFenced       int64
}

// pairKey identifies one directed (src, dst) parcel channel.
type pairKey struct{ src, dst int32 }

// sendEntry is the sender-side record of one unacked parcel. Every mutable
// field is owned by the delivery engine's critical section.
type sendEntry struct {
	key      pairKey
	seq      uint64
	bytes    int
	deadline time.Time
	backoff  time.Duration // guarded by delivery.mu
	timer    *time.Timer   // guarded by delivery.mu
	settled  bool          // guarded by delivery.mu
}

// delivery is the per-runtime parcel delivery engine.
type delivery struct {
	rt   *Runtime
	cfg  DeliveryConfig
	wire Transport
	// fastPath short-circuits SendParcel straight to Locality.Spawn for the
	// zero-latency perfect wire, keeping the steady-state remote send
	// allocation-free.
	fastPath bool

	mu      sync.Mutex
	rng     *rand.Rand                        // guarded by mu
	nextSeq map[pairKey]uint64                // guarded by mu
	unacked map[pairKey]map[uint64]*sendEntry // guarded by mu
	// seen is the receiver-side dedup filter. In-process it simply grows
	// with the parcel count of one single-shot run; a long-lived transport
	// would compact it with a cumulative-ack watermark.
	seen map[pairKey]map[uint64]bool // guarded by mu

	// dead marks ranks whose endpoints have been severed by a failure
	// verdict (SeverRank). Sized from the config because newDelivery runs
	// before the localities are built.
	dead []atomic.Bool

	sent             atomic.Int64
	retried          atomic.Int64
	acked            atomic.Int64
	deadlineExceeded atomic.Int64
	delivered        atomic.Int64
	deduped          atomic.Int64
	severed          atomic.Int64
	lateDrops        atomic.Int64
}

func newDelivery(rt *Runtime, wire Transport, cfg DeliveryConfig, seed int64) *delivery {
	pt, perfect := wire.(*PerfectTransport)
	d := &delivery{
		rt:       rt,
		cfg:      cfg.withDefaults(),
		wire:     wire,
		fastPath: perfect && pt.Latency == 0,
		rng:      rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407)),
		nextSeq:  make(map[pairKey]uint64),
		unacked:  make(map[pairKey]map[uint64]*sendEntry),
		seen:     make(map[pairKey]map[uint64]bool),
	}
	// Wire mode fences by global rank, so the dead table spans the world
	// even though only one locality lives in this process.
	d.dead = make([]atomic.Bool, max(rt.cfg.Localities, rt.cfg.World))
	return d
}

// sever tears down a dead rank's transport endpoints: future sends to it
// are refused, every in-flight unacked parcel touching it (either
// direction) is settled — stopping its retransmission timer and releasing
// its pending unit — so retry loops aimed at a corpse end at the detector
// verdict instead of hammering the wire until the delivery deadline.
func (d *delivery) sever(rank int) {
	d.dead[rank].Store(true)
	var timers []*time.Timer
	n := 0
	d.mu.Lock()
	for key, um := range d.unacked {
		if int(key.src) != rank && int(key.dst) != rank {
			continue
		}
		for seq, e := range um {
			if e.settled {
				continue
			}
			e.settled = true
			delete(um, seq)
			if e.timer != nil {
				timers = append(timers, e.timer)
			}
			n++
		}
	}
	d.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	if n > 0 {
		d.severed.Add(int64(n))
		for i := 0; i < n; i++ {
			d.rt.finish()
		}
	}
}

// purge settles every outstanding unacked parcel regardless of endpoint:
// retransmission timers are stopped and the pending units released. Called
// at Run teardown so a failed or aborted run's stragglers cannot keep
// retransmitting into the transport after Run returns. On a long-lived wire
// the next run shares the socket, and a re-emitted frame is stamped with
// the *current* cluster generation at send time — a dead run's payload
// would ride straight through the next run's generation fence and shadow
// its real broadcast. A clean run has nothing unacked, so this is a no-op
// on the success path (and always on the fast path, which never registers
// entries).
func (d *delivery) purge() {
	var timers []*time.Timer
	n := 0
	d.mu.Lock()
	for _, um := range d.unacked {
		for seq, e := range um {
			if e.settled {
				continue
			}
			e.settled = true
			delete(um, seq)
			if e.timer != nil {
				timers = append(timers, e.timer)
			}
			n++
		}
	}
	d.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	if n > 0 {
		d.deadlineExceeded.Add(int64(n))
		for i := 0; i < n; i++ {
			d.rt.finish()
		}
	}
}

// rankDead reports whether a rank's endpoints have been severed.
func (d *delivery) rankDead(rank int32) bool {
	return d.dead[rank].Load()
}

// stats merges the delivery-layer counters with the wire's fault counters.
func (d *delivery) stats() TransportStats {
	w := d.wire.Stats()
	return TransportStats{
		Sent:              d.sent.Load(),
		Retried:           d.retried.Load(),
		Acked:             d.acked.Load(),
		DeadlineExceeded:  d.deadlineExceeded.Load(),
		Delivered:         d.delivered.Load(),
		Deduped:           d.deduped.Load(),
		Severed:           d.severed.Load(),
		LateDrops:         d.lateDrops.Load(),
		Dropped:           w.Dropped,
		Duplicated:        w.Duplicated,
		WireMessages:      w.Messages,
		BytesOut:          w.BytesOut,
		BytesIn:           w.BytesIn,
		Reconnects:        w.Reconnects,
		HandshakeFailures: w.HandshakeFailures,
		StaleFenced:       w.StaleFenced,
	}
}

// send conveys one remote parcel. Over a reliable wire it is a single
// (possibly latency-delayed) hop; over an unreliable wire it allocates a
// sequence number, registers the parcel for retransmission, and holds one
// runtime pending unit until the parcel settles (ack or deadline) so Run
// cannot drain while deliveries are outstanding.
func (d *delivery) send(src, dst, bytes int, action Task) {
	rt := d.rt
	if d.rankDead(int32(dst)) {
		// The destination has been declared dead: refuse the send outright
		// rather than spinning a retransmission loop at a corpse.
		d.severed.Add(1)
		return
	}
	if d.wire.Reliable() {
		rt.pending.Add(1)
		d.wire.Send(Message{Src: src, Dst: dst, Bytes: bytes, Deliver: func() {
			rt.locs[dst].Spawn(action)
			rt.finish()
		}})
		return
	}

	key := pairKey{int32(src), int32(dst)}
	d.mu.Lock()
	seq := d.nextSeq[key] + 1
	d.nextSeq[key] = seq
	e := &sendEntry{
		key:      key,
		seq:      seq,
		bytes:    bytes,
		deadline: time.Now().Add(d.cfg.Deadline),
		backoff:  d.cfg.RetryBase,
	}
	um := d.unacked[key]
	if um == nil {
		um = make(map[uint64]*sendEntry)
		d.unacked[key] = um
	}
	um[seq] = e
	d.mu.Unlock()

	rt.pending.Add(1) // released when the entry settles
	d.sent.Add(1)
	d.transmit(e, action)
}

// transmit puts one copy of the parcel on the wire and arms the
// retransmission timer with the entry's current (jittered) backoff.
func (d *delivery) transmit(e *sendEntry, action Task) {
	m := Message{
		Src: int(e.key.src), Dst: int(e.key.dst), Bytes: e.bytes, Seq: e.seq,
		Deliver: func() { d.onData(e.key, e.seq, action) },
	}
	d.mu.Lock()
	if e.settled {
		d.mu.Unlock()
		return
	}
	wait := time.Duration(float64(e.backoff) * (1 + d.rng.Float64()*d.cfg.RetryJitter))
	if e.backoff < d.cfg.RetryMax {
		e.backoff *= 2
		if e.backoff > d.cfg.RetryMax {
			e.backoff = d.cfg.RetryMax
		}
	}
	e.timer = time.AfterFunc(wait, func() { d.retry(e, action) })
	d.mu.Unlock()
	d.wire.Send(m)
}

// retry fires when a parcel stayed unacked for one backoff period: give up
// past the deadline, otherwise retransmit. A retransmission the receiver had
// in fact already processed is harmless — the dedup filter suppresses it and
// re-acks.
func (d *delivery) retry(e *sendEntry, action Task) {
	severed := d.rankDead(e.key.dst) || d.rankDead(e.key.src)
	d.mu.Lock()
	if e.settled {
		d.mu.Unlock()
		return
	}
	expired := time.Now().After(e.deadline)
	if expired || severed {
		e.settled = true
		delete(d.unacked[e.key], e.seq)
	}
	d.mu.Unlock()
	if severed {
		// An endpoint died after this entry was registered (or the sever
		// sweep raced this timer): stop retransmitting and settle.
		d.severed.Add(1)
		d.rt.finish()
		return
	}
	if expired {
		d.deadlineExceeded.Add(1)
		d.record(trace.ClassNetDeadline)
		d.rt.finish()
		return
	}
	d.retried.Add(1)
	d.record(trace.ClassNetRetry)
	d.transmit(e, action)
}

// onData runs at the destination for every arriving copy of a data parcel:
// the first copy spawns the action, later copies only bump the dedup
// counter. Every copy acks (the previous ack may have been lost).
func (d *delivery) onData(key pairKey, seq uint64, action Task) {
	if d.rankDead(key.dst) {
		// A severed rank processes nothing and acks nothing; the sender's
		// entry was settled by the sever sweep.
		return
	}
	if d.rt.shuttingDown.Load() {
		// A copy straggling in after the run completed: count it (never
		// silently lose it) and still ack so the sender settles.
		d.lateDrops.Add(1)
		d.wire.Send(Message{
			Src: int(key.dst), Dst: int(key.src), Seq: seq, Ack: true,
			Deliver: func() { d.onAck(key, seq) },
		})
		return
	}
	d.mu.Lock()
	sm := d.seen[key]
	if sm == nil {
		sm = make(map[uint64]bool)
		d.seen[key] = sm
	}
	dup := sm[seq]
	sm[seq] = true
	d.mu.Unlock()

	if dup {
		d.deduped.Add(1)
	} else {
		d.delivered.Add(1)
		d.rt.locs[key.dst].Spawn(action)
	}
	d.wire.Send(Message{
		Src: int(key.dst), Dst: int(key.src), Seq: seq, Ack: true,
		Deliver: func() { d.onAck(key, seq) },
	})
}

// onAck settles the entry on the first ack; duplicate acks (and acks for
// parcels already abandoned at the deadline) are no-ops.
func (d *delivery) onAck(key pairKey, seq uint64) {
	d.mu.Lock()
	e := d.unacked[key][seq]
	var timer *time.Timer
	if e != nil && !e.settled {
		e.settled = true
		delete(d.unacked[key], seq)
		timer = e.timer
	} else {
		e = nil
	}
	d.mu.Unlock()
	if e == nil {
		return
	}
	if timer != nil {
		timer.Stop()
	}
	d.acked.Add(1)
	d.rt.finish()
}

func (d *delivery) record(class uint8) {
	tr := d.rt.cfg.Tracer
	if !tr.Enabled() {
		return
	}
	now := tr.Now()
	tr.RecordVirtual(trace.Event{Class: class, Worker: -1, Locality: -1, Start: now, End: now})
}
