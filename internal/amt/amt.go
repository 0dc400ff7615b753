// Package amt is the asynchronous many-tasking runtime substrate standing
// in for HPX-5 (paper, Section III). It provides:
//
//   - Localities: the units of distribution, roughly equivalent to MPI
//     processes, each with its own pool of scheduler worker threads using
//     local randomized work stealing (the paper's HPX-5 configuration).
//   - Parcels: active messages sent to a locality; delivering a parcel
//     spawns a lightweight thread there (the parcel–thread equivalence of
//     HPX-5). Sending a parcel is the only way to spawn work.
//
// The LCOs (local control objects) of the paper are built on top of these
// primitives by their one consumer, the DAG executor in internal/core: an
// input counter plus a lock per node, whose last input spawns the node's
// continuation. In-process the runtime hosts every locality and the
// "network" between them is a delivery queue with modeled byte counts (and
// optional injected latency); in wire mode (Config.World) it hosts one
// locality of a multi-process cluster (cluster.go). DESIGN.md records why
// this preserves the behaviours the paper measures.
package amt

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Task is a unit of lightweight work. The worker executing the task is
// passed in so tasks can spawn further work and record trace events.
type Task func(w *Worker)

// Config configures a Runtime.
type Config struct {
	// Localities is the number of simulated localities (default 1).
	Localities int
	// Workers is the number of scheduler threads per locality (default 1).
	Workers int
	// Latency is an optional injected delay per remote parcel (honored by
	// the default PerfectTransport; a custom Transport models its own
	// delays).
	Latency time.Duration
	// Seed seeds the per-worker steal RNGs (deterministic scheduling noise)
	// and the delivery layer's backoff jitter.
	Seed int64
	// Transport is the wire remote parcels travel over; nil defaults to
	// the in-process PerfectTransport honoring Latency. An unreliable
	// transport (e.g. a FaultyTransport) automatically engages the
	// sequence/ack/retry delivery layer tuned by Delivery.
	Transport Transport
	// Delivery tunes the reliable-delivery layer used over unreliable
	// transports (zero value = defaults).
	Delivery DeliveryConfig
	// Tracer, if non-nil, receives transport fault events (retry, drop,
	// duplicate, deadline-exceeded) as virtual trace events.
	Tracer *trace.Tracer
	// World and Rank switch the runtime into wire mode (World > 1): this
	// process hosts exactly one locality whose Rank is the global rank in
	// [0, World), and remote parcels travel Transport as encoded frames
	// (SendWire / DeliverWireFrame in wiredelivery.go) instead of closures.
	// Membership — heartbeats, death verdicts — is the Cluster's job
	// (cluster.go).
	World, Rank int
}

// Runtime is the in-process AMT runtime.
type Runtime struct {
	cfg  Config
	locs []*Locality

	pending  atomic.Int64 // outstanding tasks + parcels
	done     chan struct{}
	doneOnce sync.Once
	// gen counts completed Reset cycles: a runtime is born at generation 0
	// and each successful Reset re-arms it for another Run. Long-lived
	// callers (the serving layer) use generations to avoid paying the
	// allocation cost of New per evaluation.
	gen int

	// shuttingDown is set once Run has finished its final leftover sweep;
	// from then on stray spawns (e.g. a parcel copy arriving after the
	// delivery deadline settled it) are counted instead of silently lost.
	shuttingDown atomic.Bool
	// Parcel delivery engine over cfg.Transport (delivery.go).
	net *delivery
	// wireHandler consumes inbound data frames in wire mode
	// (wiredelivery.go). Written once before the data plane starts.
	wireHandler WireHandler

	// Stats.
	parcelsSent  atomic.Int64
	parcelBytes  atomic.Int64
	tasksRun     atomic.Int64
	stealsOK     atomic.Int64
	stealsFailed atomic.Int64
	lateSpawns   atomic.Int64 // spawns rejected because the runtime has shut down
}

// Locality models one distributed-memory node.
type Locality struct {
	rt      *Runtime
	Rank    int
	workers []*Worker
	spawnRR atomic.Int64
}

// Worker is one scheduler thread of a locality.
type Worker struct {
	loc *Locality
	// ID is the worker index within the locality; GlobalID is unique across
	// the runtime.
	ID       int
	GlobalID int
	rng      *rand.Rand

	// normal and high are lock-free Chase–Lev deques (deque.go): LIFO at
	// the bottom for the owner, FIFO at the top for thieves. high holds
	// priority tasks, always drained before normal. This is the "binary
	// choice between low and high priority" extension the paper proposes
	// in Section VI to cure the critical-path starvation.
	normal wsDeque
	high   wsDeque
	// in receives tasks from goroutines that do not own this worker's
	// deques (Locality.Spawn, latency-delayed parcels); the owner drains
	// it ahead of its own deques so injected priority tasks keep beating
	// queued normal tasks.
	in inbox
	// spareHigh/spareNormal are the recycled drain buffers of the inbox.
	spareHigh   []Task
	spareNormal []Task
}

// New creates a runtime with the given configuration. Call Run to execute
// work.
func New(cfg Config) *Runtime {
	if cfg.World > 1 {
		// Wire mode: one locality per process, globally ranked.
		cfg.Localities = 1
	}
	if cfg.Localities <= 0 {
		cfg.Localities = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Transport == nil {
		cfg.Transport = &PerfectTransport{Latency: cfg.Latency}
	}
	if ft, ok := cfg.Transport.(*FaultyTransport); ok && ft.Tracer == nil {
		ft.Tracer = cfg.Tracer
	}
	rt := &Runtime{cfg: cfg, done: make(chan struct{})}
	rt.net = newDelivery(rt, cfg.Transport, cfg.Delivery, cfg.Seed)
	gid := 0
	for l := 0; l < cfg.Localities; l++ {
		loc := &Locality{rt: rt, Rank: l}
		for w := 0; w < cfg.Workers; w++ {
			wk := &Worker{
				loc:      loc,
				ID:       w,
				GlobalID: gid,
				rng:      rand.New(rand.NewSource(cfg.Seed + int64(gid)*7919 + 1)),
			}
			wk.normal.init()
			wk.high.init()
			loc.workers = append(loc.workers, wk)
			gid++
		}
		rt.locs = append(rt.locs, loc)
	}
	if cfg.World > 1 {
		rt.locs[0].Rank = cfg.Rank
	}
	return rt
}

// Localities returns the number of localities.
func (rt *Runtime) Localities() int { return len(rt.locs) }

// Workers returns the number of workers per locality.
func (rt *Runtime) Workers() int { return rt.cfg.Workers }

// TotalWorkers returns the total scheduler thread count n.
func (rt *Runtime) TotalWorkers() int { return len(rt.locs) * rt.cfg.Workers }

// Locality returns locality l.
func (rt *Runtime) Locality(l int) *Locality { return rt.locs[l] }

// TasksExecuted returns the number of tasks run so far. Watchdogs sample it
// as a cheap progress indicator.
func (rt *Runtime) TasksExecuted() int64 { return rt.tasksRun.Load() }

// Locality returns the worker's locality.
func (w *Worker) Locality() *Locality { return w.loc }

// Rank returns the locality rank the worker belongs to.
func (w *Worker) Rank() int { return w.loc.Rank }

// Runtime returns the owning runtime.
func (l *Locality) Runtime() *Runtime { return l.rt }

// pop removes the most recently pushed task (LIFO: cache locality, as in
// HPX-5's default scheduler), draining the priority lane first. Owner only.
func (w *Worker) pop() (Task, bool) {
	if t, ok := w.high.pop(); ok {
		return t, true
	}
	return w.normal.pop()
}

// steal removes the oldest task (FIFO end), priority lane first. Used by
// thieves; lock-free.
func (w *Worker) steal() (Task, bool) {
	if t, ok := w.high.steal(); ok {
		return t, true
	}
	return w.normal.steal()
}

// Spawn schedules a task on the worker's own deque. It must only be called
// from code running on this worker (i.e. inside one of its tasks): the
// lock-free deques have a single owner. Work arriving from outside any
// worker goes through Locality.Spawn.
//
//dashmm:noalloc
func (w *Worker) Spawn(t Task) {
	w.loc.rt.pending.Add(1)
	w.normal.push(t)
}

// SpawnHigh schedules a priority task: it runs before any normal task of
// its worker and is preferred by thieves. Owner-only, like Spawn.
//
//dashmm:noalloc
func (w *Worker) SpawnHigh(t Task) {
	w.loc.rt.pending.Add(1)
	w.high.push(t)
}

// Spawn schedules a task on the locality, round-robin across its workers'
// inboxes. It is the entry point for work arriving from outside any worker
// (initial tasks, parcel delivery, cross-worker LCO continuations). A spawn
// after the runtime has shut down is counted rather than silently lost.
func (l *Locality) Spawn(t Task) { l.spawn(t, false) }

// SpawnHigh is the priority variant of Spawn.
func (l *Locality) SpawnHigh(t Task) { l.spawn(t, true) }

//dashmm:noalloc
func (l *Locality) spawn(t Task, high bool) {
	rt := l.rt
	if rt.shuttingDown.Load() {
		rt.lateSpawns.Add(1)
		return
	}
	rt.pending.Add(1)
	i := int(l.spawnRR.Add(1)-1) % len(l.workers)
	l.workers[i].in.add(t, high)
}

// SendParcel sends an active-message parcel of the given payload size to
// the destination locality, where action runs as a lightweight thread.
// Sending to the local rank is a plain spawn (no network accounting), which
// is how HPX-5 abstracts shared- vs distributed-memory execution. Remote
// sends travel the configured Transport; over an unreliable wire the
// delivery layer guarantees the action is spawned at most once (exactly
// once unless the delivery deadline is exceeded).
//
//dashmm:noalloc
func (w *Worker) SendParcel(dest int, bytes int, action Task) {
	rt := w.loc.rt
	if dest == w.loc.Rank {
		w.Spawn(action)
		return
	}
	rt.parcelsSent.Add(1)
	rt.parcelBytes.Add(int64(bytes))
	if rt.net.fastPath {
		rt.locs[dest].Spawn(action)
		return
	}
	rt.net.send(w.loc.Rank, dest, bytes, action)
}

// finish marks one pending unit complete.
//
//dashmm:noalloc
func (rt *Runtime) finish() {
	if rt.pending.Add(-1) == 0 {
		rt.signalDone()
	}
}

// signalDone closes the completion channel exactly once. Kept out of finish
// so the once-closure is allocated here, on the single terminal call, rather
// than on every task completion (finish is per-task hot path).
func (rt *Runtime) signalDone() {
	rt.doneOnce.Do(func() { close(rt.done) })
}

// Run seeds the runtime by calling setup on locality 0 (outside any worker)
// and blocks until all spawned work has drained (or Abort is called). It
// returns basic execution statistics. A Runtime runs one generation at a
// time: after Run returns, call Reset to re-arm it for another Run (the
// long-lived-service path), or create a new one. Reset refuses the
// configurations that are genuinely single-shot (unreliable transport,
// aborted runs).
func (rt *Runtime) Run(setup func()) Stats {
	// Guard against an immediate empty run.
	rt.pending.Add(1)
	setup()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, loc := range rt.locs {
		for _, w := range loc.workers {
			wg.Add(1)
			go func(w *Worker) {
				defer wg.Done()
				w.run(stop)
			}(w)
		}
	}
	rt.finish() // release the setup guard
	<-rt.done
	close(stop)
	wg.Wait()
	// Shutdown drain: a task spawned between the pending counter reaching
	// zero and the workers returning (a late parcel copy, a straggling
	// continuation) may still sit in an inbox. Execute everything left,
	// then raise the shutdown flag so anything arriving later is counted
	// (TransportStats.LateDrops / spawn counters) instead of silently lost.
	rt.sweepLeftovers()
	rt.shuttingDown.Store(true)
	rt.sweepLeftovers() // whatever raced the flag
	// Settle whatever this run never got acked. A failed or aborted run
	// leaves unacked parcels whose retransmission timers would otherwise
	// outlive Run by up to the delivery deadline — and on a shared wire a
	// retransmitted frame is re-stamped with the current cluster generation,
	// so a dead run's stragglers would pass the next run's fence.
	rt.net.purge()
	return rt.StatsNow()
}

// StatsNow assembles the current counter values. Run returns the same
// snapshot; StatsNow additionally lets tests observe post-run activity
// (late parcel copies, severed retransmissions).
func (rt *Runtime) StatsNow() Stats {
	return Stats{
		TasksRun:     rt.tasksRun.Load(),
		ParcelsSent:  rt.parcelsSent.Load(),
		ParcelBytes:  rt.parcelBytes.Load(),
		Steals:       rt.stealsOK.Load(),
		FailedSteals: rt.stealsFailed.Load(),
		LateSpawns:   rt.lateSpawns.Load(),
		Transport:    rt.net.stats(),
	}
}

// Generation returns how many times the runtime has been Reset. A fresh
// runtime is generation 0.
func (rt *Runtime) Generation() int { return rt.gen }

// Reset re-arms the runtime for another Run, making it multi-shot: the
// completion latch is recreated, the shutdown flag cleared and the stats
// counters zeroed, while the expensive structures New builds — worker
// structs, their lock-free deques and inboxes, the delivery engine — are
// kept. The caller must only Reset a quiesced runtime: Run has returned and
// no external goroutine is still delivering work to it.
//
// Reset refuses (returning an error, leaving the runtime unusable for
// further Runs) when the previous run did not drain cleanly or when the
// configuration pins state that is only correct single-shot:
//
//   - pending work remains (an aborted or stalled run — queues may hold
//     tasks whose context is gone);
//   - the transport is unreliable (the delivery layer's sequence windows
//     and retransmission state encode one run's history).
//
// Callers handle an error by discarding the runtime and calling New — the
// pool-and-recreate fallback.
func (rt *Runtime) Reset() error {
	if n := rt.pending.Load(); n != 0 {
		return fmt.Errorf("amt: Reset with %d pending units (aborted run?)", n)
	}
	if !rt.net.fastPath {
		return fmt.Errorf("amt: Reset over an unreliable transport")
	}
	rt.done = make(chan struct{})
	rt.doneOnce = sync.Once{}
	rt.shuttingDown.Store(false)
	rt.parcelsSent.Store(0)
	rt.parcelBytes.Store(0)
	rt.tasksRun.Store(0)
	rt.stealsOK.Store(0)
	rt.stealsFailed.Store(0)
	rt.lateSpawns.Store(0)
	rt.gen++
	return nil
}

// Abort forces Run to return even though work is still pending. Used by
// watchdogs that have diagnosed a stalled evaluation: the scheduler loops
// exit, leftovers are drained, and the caller reports its diagnosis instead
// of hanging forever.
func (rt *Runtime) Abort() {
	rt.signalDone()
}

// sweepLeftovers runs after every worker goroutine has exited (single
// caller, no concurrent deque owners), so Run may drain and execute any
// remaining queued tasks inline on behalf of the workers.
func (rt *Runtime) sweepLeftovers() {
	for {
		n := 0
		for _, loc := range rt.locs {
			for _, w := range loc.workers {
				w.in.drain(w)
				for {
					t, ok := w.pop()
					if !ok {
						break
					}
					w.execute(t)
					n++
				}
			}
		}
		if n == 0 {
			return
		}
	}
}

// run is the worker scheduling loop: inbox drained into the own deques
// (so injected priority work keeps its precedence), own deques (LIFO),
// then random victims within the locality (the paper's "local randomized
// workstealing"), then a brief backoff.
func (w *Worker) run(stop <-chan struct{}) {
	rt := w.loc.rt
	backoff := time.Microsecond
	for {
		w.in.drain(w)
		if t, ok := w.pop(); ok {
			w.execute(t)
			backoff = time.Microsecond
			continue
		}
		if t, ok := w.trySteal(); ok {
			rt.stealsOK.Add(1)
			w.execute(t)
			backoff = time.Microsecond
			continue
		}
		rt.stealsFailed.Add(1)
		select {
		case <-stop:
			// Shutdown: execute (never drop) anything that slipped into
			// the inbox or deques after the last drain, so a task spawned
			// during shutdown is not silently lost.
			w.in.drain(w)
			for {
				t, ok := w.pop()
				if !ok {
					return
				}
				w.execute(t)
			}
		default:
		}
		time.Sleep(backoff)
		if backoff < 64*time.Microsecond {
			backoff *= 2
		}
	}
}

//dashmm:noalloc
func (w *Worker) execute(t Task) {
	rt := w.loc.rt
	rt.tasksRun.Add(1)
	t(w)
	rt.finish()
}

// trySteal attempts to steal from a random co-located victim: every
// victim's deques first (priority lane before normal, per victim), then —
// only if all deques are dry — one task from a victim inbox, so a backlog
// behind a busy owner cannot strand the locality.
func (w *Worker) trySteal() (Task, bool) {
	ws := w.loc.workers
	if len(ws) == 1 {
		return nil, false
	}
	start := w.rng.Intn(len(ws))
	for i := 0; i < len(ws); i++ {
		v := ws[(start+i)%len(ws)]
		if v == w {
			continue
		}
		if t, ok := v.steal(); ok {
			return t, true
		}
	}
	for i := 0; i < len(ws); i++ {
		v := ws[(start+i)%len(ws)]
		if v == w {
			continue
		}
		if t, ok := v.in.steal(); ok {
			return t, true
		}
	}
	return nil, false
}

// Stats reports what the runtime did during Run.
type Stats struct {
	TasksRun     int64
	ParcelsSent  int64
	ParcelBytes  int64
	Steals       int64
	FailedSteals int64
	// LateSpawns counts spawns rejected after shutdown.
	LateSpawns int64
	// Transport counts delivery-layer and wire activity (retries, dedups,
	// injected faults). All-zero except Sent/Acked-style fields when the
	// wire is unreliable; fully zero on the perfect fast path.
	Transport TransportStats
}

func (s Stats) String() string {
	out := fmt.Sprintf("tasks=%d parcels=%d parcelBytes=%d steals=%d failedSteals=%d",
		s.TasksRun, s.ParcelsSent, s.ParcelBytes, s.Steals, s.FailedSteals)
	if t := s.Transport; t.Sent+t.Retried+t.Dropped+t.Duplicated+t.Deduped+t.DeadlineExceeded > 0 {
		out += fmt.Sprintf(" transport[sent=%d retried=%d acked=%d delivered=%d deduped=%d dropped=%d duplicated=%d deadline=%d]",
			t.Sent, t.Retried, t.Acked, t.Delivered, t.Deduped, t.Dropped, t.Duplicated, t.DeadlineExceeded)
	}
	if s.LateSpawns > 0 {
		out += fmt.Sprintf(" lateSpawns=%d", s.LateSpawns)
	}
	if t := s.Transport; t.BytesOut+t.BytesIn+t.Reconnects+t.HandshakeFailures > 0 {
		out += fmt.Sprintf(" wire[msgs=%d bytesOut=%d bytesIn=%d reconnects=%d handshakeFails=%d]",
			t.WireMessages, t.BytesOut, t.BytesIn, t.Reconnects, t.HandshakeFailures)
	}
	return out
}
