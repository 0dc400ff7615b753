package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amt"
	"repro/internal/dag"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/trace"
)

// ExecOptions configures a parallel evaluation on the AMT runtime.
type ExecOptions struct {
	// Localities and Workers shape the runtime (defaults 1 and 1).
	Localities int
	Workers    int
	// Policy places the implicit DAG (default dist.MinComm, the paper's
	// policy).
	Policy dist.Policy
	// Tracer, if non-nil, records one event per operator application for
	// the utilization analysis.
	Tracer *trace.Tracer
	// Latency is injected per remote parcel.
	Latency time.Duration
	// Seed makes the scheduler's steal order reproducible.
	Seed int64
	// Priority enables the binary priority hints the paper proposes in
	// Section VI: tasks of the upward source-tree sweep (S and M nodes) run
	// before everything else, pulling the critical path forward.
	Priority bool
	// PerEdge disables batched kernel execution (the multi-RHS M->L batches
	// and tiled P2P of batch.go): every DAG edge is applied individually, as
	// before the batching work. The accuracy gates evaluate both paths and
	// compare them; it is also the escape hatch if a batch-ineligible
	// configuration is wanted explicitly. Latency-modeled runs are per-edge
	// regardless, since batches complete in shared memory and would bypass
	// the modeled wire.
	PerEdge bool
	// Gradient also computes the potential gradient at every target;
	// retrieve it with EvaluateGrad.
	Gradient bool
	// Fault injects wire faults: when non-nil every remote parcel travels
	// an amt.FaultyTransport built from this profile (fresh per Run, so the
	// seeded fault sequence is reproducible), with the reliable ack/retry
	// delivery layer engaged on top. Nil keeps the perfect in-process wire.
	Fault *amt.FaultProfile
	// Delivery tunes the reliable-delivery layer used when Fault is set
	// (zero value = amt defaults).
	Delivery amt.DeliveryConfig
	// StallWindow, when positive, arms a watchdog that aborts the run with
	// a diagnostic listing the unsatisfied LCOs (owner rank, arrived/needed
	// counts) if no task executes for a full window, instead of hanging.
	StallWindow time.Duration
}

func (o ExecOptions) withDefaults() ExecOptions {
	if o.Localities <= 0 {
		o.Localities = 1
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Policy == nil {
		o.Policy = dist.MinComm{}
	}
	return o
}

// ExecReport describes one parallel evaluation.
type ExecReport struct {
	// Gradients holds the per-target potential gradient when
	// ExecOptions.Gradient was set (nil otherwise), in the caller's target
	// order.
	Gradients   []geom.Point
	Runtime     amt.Stats
	Elapsed     time.Duration
	RemoteBytes int64
	RemoteEdges int64
	Localities  int
	Workers     int
	// RuntimeReused reports that the evaluation ran on a pooled runtime
	// re-armed from a previous Run instead of a freshly built one.
	RuntimeReused bool
	// Recovery reports rank-death failover activity of a distributed run
	// (DistRun); always zero for an in-process evaluation.
	Recovery RecoveryStats
}

// parcelOverhead is the per-edge descriptor cost added to a coalesced
// parcel (operation type + target global address), as in Section IV.
const parcelOverhead = 16

// Evaluate runs the DAG on the AMT runtime: every expansion node becomes a
// custom LCO holding its payload and out-edge list; the last arriving input
// triggers a continuation that processes the out edges — local edges
// sequentially (the paper's cache-locality choice), remote edges coalesced
// into one parcel per destination locality carrying the expansion data and
// the relevant edges.
//
// For the paper's iterative use case (many charge vectors over one DAG)
// prefer NewParallelEvaluation, which allocates the payloads and the LCO
// network once and reuses them run over run.
func (p *Plan) Evaluate(charges []float64, opts ExecOptions) ([]float64, ExecReport, error) {
	pe, err := p.NewParallelEvaluation(opts)
	if err != nil {
		return nil, ExecReport{}, err
	}
	return pe.Run(charges)
}

// ParallelEvaluation is a reusable parallel evaluation context over one
// Plan: the expansion payloads, the LCO trigger counters and the node
// continuations are allocated once, so steady-state runs allocate nothing
// per evaluated edge. On the perfect-wire configuration the runtime itself
// is kept across Runs too (amt.Runtime.Reset re-arms it per generation), so
// repeated evaluations skip the amt.New worker/deque setup; fault-injected
// and latency-modeled shapes fall back to a fresh single-shot runtime per
// Run.
type ParallelEvaluation struct {
	plan *Plan
	opts ExecOptions
	ex   *executor
	// rt is the pooled runtime of the reusable configuration (nil until the
	// first Run, and always nil for single-shot configurations).
	rt *amt.Runtime
}

// NewParallelEvaluation allocates a parallel evaluation context. The DAG
// placement is computed per Run (it depends only on the policy and the
// locality count, but reassigning keeps Plan sharing across contexts with
// different shapes correct).
func (p *Plan) NewParallelEvaluation(opts ExecOptions) (*ParallelEvaluation, error) {
	opts = opts.withDefaults()
	st, err := p.newState(make([]float64, len(p.Source.Pts)), opts.Gradient)
	if err != nil {
		return nil, err
	}
	g := p.Graph
	ex := &executor{
		st:        st,
		g:         g,
		tracer:    opts.Tracer,
		priority:  opts.Priority,
		remaining: make([]atomic.Int32, len(g.Nodes)),
		locks:     make([]sync.Mutex, len(g.Nodes)),
		tasks:     make([]amt.Task, len(g.Nodes)),
	}
	// One continuation closure per node, built once and spawned by pointer
	// on every trigger — the hot path never allocates a closure.
	for i := range ex.tasks {
		id := int32(i)
		ex.tasks[i] = func(w *amt.Worker) { ex.runNode(w, id) }
	}
	ex.initBatches(p, opts)
	pe := &ParallelEvaluation{plan: p, opts: opts, ex: ex}
	p.registerCtx(pe)
	return pe, nil
}

// Reset re-arms the context for a fresh run: payloads zeroed, every node's
// trigger counter restored to its input count, the watchdog diagnosis
// cleared, and any pooled runtime discarded. Run re-arms itself at entry,
// so Reset matters for scrubbing a context whose last Run failed mid-way
// (see Plan.Reset).
func (e *ParallelEvaluation) Reset() {
	ex := e.ex
	ex.st.zeroAll()
	for i := range ex.remaining {
		ex.remaining[i].Store(ex.g.Nodes[i].In)
	}
	ex.resetBatchPending()
	ex.stallMu.Lock()
	ex.stallErr = nil
	ex.stallMu.Unlock()
	// A mid-run failure may have left the pooled runtime with undrained
	// queues; drop it rather than reason about its state (amt.Runtime.Reset
	// would refuse it anyway).
	e.rt = nil
}

// Run evaluates the DAG for one charge vector on a fresh runtime, reusing
// the context's payload buffers and LCO network.
func (e *ParallelEvaluation) Run(charges []float64) ([]float64, ExecReport, error) {
	p, ex, opts := e.plan, e.ex, e.opts
	if len(charges) != len(p.Source.Pts) {
		return nil, ExecReport{}, fmt.Errorf("core: %d charges for %d sources", len(charges), len(p.Source.Pts))
	}
	ex.st.reset(charges)
	g := p.Graph
	opts.Policy.Assign(g, opts.Localities)
	for i := range g.Nodes {
		ex.remaining[i].Store(g.Nodes[i].In)
	}
	ex.resetBatchPending()
	ex.stallMu.Lock()
	ex.stallErr = nil
	ex.stallMu.Unlock()

	// Runtime: the perfect-wire configuration (the serving hot path) keeps
	// one runtime across Runs and re-arms it per generation
	// (amt.Runtime.Reset), skipping the worker/deque/delivery allocation of
	// amt.New. Fault-injected and latency-modeled shapes are genuinely
	// single-shot — their wire state encodes one run's history — and get a
	// fresh runtime every time.
	reusable := opts.Fault == nil && opts.Latency == 0
	rt := e.rt
	runtimeReused := false
	if rt != nil {
		if err := rt.Reset(); err == nil {
			runtimeReused = true
		} else {
			rt = nil
		}
	}
	if rt == nil {
		var tp amt.Transport
		if opts.Fault != nil {
			tp = amt.NewFaultyTransport(*opts.Fault)
		}
		rt = amt.New(amt.Config{
			Localities: opts.Localities,
			Workers:    opts.Workers,
			Latency:    opts.Latency,
			Seed:       opts.Seed,
			Transport:  tp,
			Delivery:   opts.Delivery,
			Tracer:     opts.Tracer,
		})
	}
	if reusable {
		e.rt = rt
	}
	ex.rt = rt

	var stopWatchdog func()
	if opts.StallWindow > 0 {
		stopWatchdog = ex.runWatchdog(rt, opts.StallWindow)
	}

	start := time.Now()
	stats := rt.Run(func() {
		for _, id := range g.Roots() {
			n := &g.Nodes[id]
			loc := rt.Locality(int(n.Locality))
			if ex.isHigh(id) {
				loc.SpawnHigh(ex.tasks[id])
			} else {
				loc.Spawn(ex.tasks[id])
			}
		}
	})
	elapsed := time.Since(start)
	if stopWatchdog != nil {
		stopWatchdog()
	}

	if err := ex.stallError(); err != nil {
		return nil, ExecReport{}, err
	}

	// Sanity: every node must have fired. Parcels abandoned at the delivery
	// deadline are the one legitimate way inputs can go missing — name them.
	for i := range ex.remaining {
		if ex.remaining[i].Load() > 0 {
			err := fmt.Errorf("core: node %d (%v) never triggered (%d inputs missing)",
				i, g.Nodes[i].Kind, ex.remaining[i].Load())
			if ded := stats.Transport.DeadlineExceeded; ded > 0 {
				err = fmt.Errorf("%w; %d parcels exceeded the delivery deadline", err, ded)
			}
			return nil, ExecReport{}, err
		}
	}
	return ex.st.potentials(), ExecReport{
		Gradients:     ex.st.gradients(),
		Runtime:       stats,
		Elapsed:       elapsed,
		RemoteBytes:   dist.RemoteBytes(g),
		RemoteEdges:   dist.RemoteEdges(g),
		Localities:    opts.Localities,
		Workers:       opts.Workers,
		RuntimeReused: runtimeReused,
	}, nil
}

// executor is the LCO network of one evaluation context.
type executor struct {
	st        *state
	g         *dag.Graph
	rt        *amt.Runtime // the current run's runtime
	tracer    *trace.Tracer
	priority  bool
	remaining []atomic.Int32
	locks     []sync.Mutex
	tasks     []amt.Task // prebuilt node continuations, indexed by node ID
	// Batched execution (batch.go): descriptors from the plan, the
	// per-kind enable switches, one pending-source counter and prebuilt
	// task per batch, and the pooled GEMM/chunk scratch.
	batches      *dag.Batches
	bk           kernel.BatchKernel
	m2lOn, p2pOn bool
	batchPending []atomic.Int32
	batchTasks   []amt.Task
	batchScratch sync.Pool
	// stallMu/stallErr carry the watchdog diagnosis (runWatchdog).
	stallMu  sync.Mutex
	stallErr error // guarded by stallMu
}

// isHigh reports whether a node's continuation carries the high priority
// hint: the upward source-tree sweep feeding the critical path.
func (ex *executor) isHigh(id int32) bool {
	if !ex.priority {
		return false
	}
	k := ex.g.Nodes[id].Kind
	return k == dag.NodeS || k == dag.NodeM
}

// parcelEdges is a pooled remote-edge list: the out edges of one node
// bound for one destination locality. Ownership passes to the parcel
// action, which recycles it after delivering every edge. idx carries the
// matching out-edge indexes on the distributed path (empty in-process).
type parcelEdges struct {
	edges []dag.Edge
	idx   []int32
}

var parcelEdgesPool = sync.Pool{New: func() any { return new(parcelEdges) }}

// remoteBatch groups one node's remote out-edges by destination locality.
// Nodes touch only a few localities, so a linear scan over a small pooled
// slice beats a map allocation per trigger.
type remoteBatch struct {
	dests []int32
	lists []*parcelEdges
}

var remoteBatchPool = sync.Pool{New: func() any { return new(remoteBatch) }}

//dashmm:noalloc
func (b *remoteBatch) add(dest int32, e dag.Edge) {
	for i, d := range b.dests {
		if d == dest {
			b.lists[i].edges = append(b.lists[i].edges, e)
			return
		}
	}
	pe := parcelEdgesPool.Get().(*parcelEdges)
	pe.edges = append(pe.edges[:0], e)
	b.dests = append(b.dests, dest)
	b.lists = append(b.lists, pe)
}

// addIdx is the distributed variant of add: it also records the edge's
// index within the source's Out list, from which the receiver derives the
// edge's dedup bit.
//
//dashmm:noalloc
func (b *remoteBatch) addIdx(dest int32, e dag.Edge, gidx int32) {
	for i, d := range b.dests {
		if d == dest {
			b.lists[i].edges = append(b.lists[i].edges, e)
			b.lists[i].idx = append(b.lists[i].idx, gidx)
			return
		}
	}
	pe := parcelEdgesPool.Get().(*parcelEdges)
	pe.edges = append(pe.edges[:0], e)
	pe.idx = append(pe.idx[:0], gidx)
	b.dests = append(b.dests, dest)
	b.lists = append(b.lists, pe)
}

//dashmm:noalloc
func (b *remoteBatch) release() {
	for i := range b.lists {
		b.lists[i] = nil // ownership moved to the parcel actions
	}
	b.dests = b.dests[:0]
	b.lists = b.lists[:0]
	remoteBatchPool.Put(b)
}

// runNode is the continuation of node id: process the out-edge list. It
// runs once per evaluation, when the node's LCO triggers (all inputs
// arrived).
func (ex *executor) runNode(w *amt.Worker, id int32) {
	n := &ex.g.Nodes[id]
	myLoc := int32(w.Rank())
	// Local edges first, sequentially: the large input payload is reused
	// while hot (Section VI discusses this trade-off).
	var batch *remoteBatch
	for _, e := range n.Out {
		if e.Batched && ex.batchEdgeOn(e.Op) {
			// A batch task owns this edge; it fires when every source of
			// its batch has triggered (noteBatchSources below).
			continue
		}
		dest := ex.g.Nodes[e.To].Locality
		if dest == myLoc {
			ex.deliver(w, n, e)
			continue
		}
		if batch == nil {
			batch = remoteBatchPool.Get().(*remoteBatch)
		}
		batch.add(dest, e)
	}
	if batch != nil {
		// One coalesced parcel per destination locality: expansion data +
		// edge descriptors travel once, the transforms run at the receiver.
		for i, dest := range batch.dests {
			pe := batch.lists[i]
			bytes := int(n.Bytes) + parcelOverhead*len(pe.edges)
			w.SendParcel(int(dest), bytes, func(w2 *amt.Worker) {
				for _, e := range pe.edges {
					ex.deliver(w2, n, e)
				}
				pe.edges = pe.edges[:0]
				parcelEdgesPool.Put(pe)
			})
		}
		batch.release()
	}
	ex.noteBatchSources(w, id)
}

// deliver applies one edge into its target LCO: the transform plus
// reduction runs under the target's lock; the final input triggers the
// target's continuation.
//
//dashmm:noalloc
func (ex *executor) deliver(w *amt.Worker, from *dag.Node, e dag.Edge) {
	var t0 int64
	if ex.tracer.Enabled() {
		t0 = ex.tracer.Now()
	}
	ex.locks[e.To].Lock()
	ex.st.apply(from, e)
	ex.locks[e.To].Unlock()
	if ex.tracer.Enabled() {
		ex.tracer.Record(w.GlobalID, trace.Event{
			Class:    uint8(e.Op),
			Worker:   int32(w.GlobalID),
			Locality: int32(w.Rank()),
			Start:    t0,
			End:      ex.tracer.Now(),
		})
	}
	if ex.remaining[e.To].Add(-1) == 0 {
		ex.fireNode(w, e.To)
	}
}

// fireNode spawns the continuation of a node whose last input just arrived,
// on its home locality (the LCO lives there) with the priority hint of its
// class. Shared by the per-edge delivery and the batch completion paths.
//
//dashmm:noalloc
func (ex *executor) fireNode(w *amt.Worker, id int32) {
	to := &ex.g.Nodes[id]
	high := ex.isHigh(to.ID)
	switch {
	case int32(w.Rank()) == to.Locality && high:
		w.SpawnHigh(ex.tasks[to.ID])
	case int32(w.Rank()) == to.Locality:
		w.Spawn(ex.tasks[to.ID])
	case high:
		ex.rt.Locality(int(to.Locality)).SpawnHigh(ex.tasks[to.ID])
	default:
		ex.rt.Locality(int(to.Locality)).Spawn(ex.tasks[to.ID])
	}
}

// runWatchdog samples execution progress and, if no task runs for a full
// window, diagnoses the stall — listing every unsatisfied LCO with its
// owner rank and arrived/needed counts — and aborts the run instead of
// hanging. The returned stop function joins the goroutine.
func (ex *executor) runWatchdog(rt *amt.Runtime, window time.Duration) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := rt.TasksExecuted()
		lastChange := time.Now()
		tick := time.NewTicker(window / 4)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				cur := rt.TasksExecuted()
				if cur != last {
					last = cur
					lastChange = time.Now()
					continue
				}
				if time.Since(lastChange) < window {
					continue
				}
				err := ex.diagnoseStall(window)
				ex.stallMu.Lock()
				ex.stallErr = err
				ex.stallMu.Unlock()
				rt.Abort()
				return
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// diagnoseStall renders the unsatisfied-LCO listing of a stalled run.
func (ex *executor) diagnoseStall(window time.Duration) error {
	const maxListed = 16
	var sb strings.Builder
	stuck := 0
	for i := range ex.remaining {
		rem := ex.remaining[i].Load()
		if rem <= 0 {
			continue
		}
		stuck++
		if stuck > maxListed {
			continue
		}
		n := &ex.g.Nodes[i]
		fmt.Fprintf(&sb, "\n  node %d (%v) on rank %d: %d/%d inputs arrived",
			i, n.Kind, n.Locality, n.In-rem, n.In)
	}
	if stuck > maxListed {
		fmt.Fprintf(&sb, "\n  ... and %d more", stuck-maxListed)
	}
	return fmt.Errorf("core: evaluation stalled (no task ran for %s); %d unsatisfied LCOs:%s",
		window, stuck, sb.String())
}

// stallError returns the watchdog's diagnosis, if any.
func (ex *executor) stallError() error {
	ex.stallMu.Lock()
	defer ex.stallMu.Unlock()
	return ex.stallErr
}
