package core

import (
	"sync/atomic"

	"repro/internal/amt"
	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/trace"
)

// Batched execution (DESIGN.md, "Batched execution"). The plan carries
// batch descriptors (dag.BuildBatches); the executor turns each into one
// prebuilt task guarded by a pending-source counter. A triggering node
// skips its batched out-edges on the per-edge path and decrements the
// counters of the batches it feeds; the last source in spawns the batch
// task, which applies every member edge through the kernel's blocked
// multi-RHS M->L (far field) or cache-tiled P2P (near field) and then runs
// the ordinary LCO bookkeeping per edge — target lock, reduction, input
// countdown, trigger — so downstream scheduling is identical to per-edge
// execution. Batches complete in shared memory: the member edges bypass
// the parcel wire (they are skipped by the coalescing loop), which is why
// latency-modeled runs disable batching.

// batchBlock is the far-field GEMM block: 16 right-hand sides of scratch
// (25.6 KB at p=9) keep the accumulation out of the target locks while the
// 160 KB operator plus the block stays L2-resident.
const batchBlock = 16

// batchScratch is the pooled per-task scratch of the batch paths.
type batchScratch struct {
	buf    []complex128 // batchBlock contiguous out vectors
	ins    [batchBlock][]complex128
	outs   [batchBlock][]complex128
	chunks []kernel.P2PChunk
}

// initBatches wires the plan's batch descriptors into the executor:
// per-batch pending counters, prebuilt batch tasks and the scratch pool.
// Batching is an execution strategy with a per-shape gate — PerEdge opts
// out wholesale, latency-modeled runs stay per-edge (batches bypass the
// modeled wire), and gradient runs keep the near field per-edge (the tiled
// P2P computes potentials only).
func (ex *executor) initBatches(p *Plan, opts ExecOptions) {
	bk, isBatch := p.Kernel.(kernel.BatchKernel)
	if !isBatch || p.batches.Empty() || opts.PerEdge || opts.Latency != 0 {
		return
	}
	ex.batches = p.batches
	ex.bk = bk
	ex.m2lOn = len(p.batches.M2L) > 0
	ex.p2pOn = len(p.batches.P2P) > 0 && !opts.Gradient
	if !ex.m2lOn && !ex.p2pOn {
		ex.batches = nil
		return
	}
	nb := p.batches.NumBatches()
	ex.batchPending = make([]atomic.Int32, nb)
	ex.batchTasks = make([]amt.Task, nb)
	nm2l := int32(len(p.batches.M2L))
	for i := range ex.batchTasks {
		bi := int32(i)
		if bi < nm2l {
			ex.batchTasks[i] = func(w *amt.Worker) { ex.runBatchM2L(w, bi) }
		} else {
			pi := bi - nm2l
			ex.batchTasks[i] = func(w *amt.Worker) { ex.runBatchP2P(w, pi) }
		}
	}
	sq := p.Kernel.MLSize()
	ex.batchScratch.New = func() any {
		sc := &batchScratch{
			buf:    make([]complex128, batchBlock*sq),
			chunks: make([]kernel.P2PChunk, 0, 64),
		}
		for k := 0; k < batchBlock; k++ {
			sc.outs[k] = sc.buf[k*sq : (k+1)*sq]
		}
		return sc
	}
	ex.resetBatchPending()
}

// resetBatchPending re-arms every batch counter to its source count.
func (ex *executor) resetBatchPending() {
	if ex.batches == nil {
		return
	}
	for i := range ex.batchPending {
		ex.batchPending[i].Store(int32(ex.batches.SrcCount(int32(i))))
	}
}

// batchEdgeOn reports whether edges of the operator class are being
// executed through batches in this context.
//
//dashmm:noalloc
func (ex *executor) batchEdgeOn(op dag.OpKind) bool {
	if op == dag.OpM2L {
		return ex.m2lOn
	}
	return ex.p2pOn
}

// batchIDOn reports whether batch bi's kind is enabled.
//
//dashmm:noalloc
func (ex *executor) batchIDOn(bi int32) bool {
	if int(bi) < len(ex.batches.M2L) {
		return ex.m2lOn
	}
	return ex.p2pOn
}

// noteBatchSources records that node id has triggered against every batch
// it feeds; the last source in spawns the batch task on the triggering
// worker's locality.
//
//dashmm:noalloc
func (ex *executor) noteBatchSources(w *amt.Worker, id int32) {
	if !ex.m2lOn && !ex.p2pOn {
		return
	}
	for _, bi := range ex.batches.SrcBatches[id] {
		if !ex.batchIDOn(bi) {
			continue
		}
		if ex.batchPending[bi].Add(-1) == 0 {
			w.Spawn(ex.batchTasks[bi])
		}
	}
}

// runBatchM2L applies one far-field batch: blocks of batchBlock edges are
// run through the kernel's multi-RHS apply into pooled scratch (no lock
// held while the GEMM streams), then each edge's result is reduced into its
// target under the target lock with the usual LCO countdown. Every source
// of the batch is complete before the task spawns, so the source payloads
// are immutable here and are read without their locks.
//
//dashmm:noalloc
func (ex *executor) runBatchM2L(w *amt.Worker, bi int32) {
	mb := &ex.batches.M2L[bi]
	sc := ex.batchScratch.Get().(*batchScratch)
	st := ex.st
	for lo := 0; lo < len(mb.Edges); lo += batchBlock {
		hi := lo + batchBlock
		if hi > len(mb.Edges) {
			hi = len(mb.Edges)
		}
		nb := hi - lo
		for k := 0; k < nb; k++ {
			sc.ins[k] = st.exp[mb.Edges[lo+k].From]
			out := sc.outs[k]
			for j := range out {
				out[j] = 0
			}
		}
		var t0 int64
		if ex.tracer.Enabled() {
			t0 = ex.tracer.Now()
		}
		ex.bk.M2LBatch(mb.Offs[lo:hi], mb.Side, mb.Level, sc.ins[:nb], sc.outs[:nb])
		for k := 0; k < nb; k++ {
			be := mb.Edges[lo+k]
			out := sc.outs[k]
			ex.locks[be.To].Lock()
			dst := st.exp[be.To]
			for j, v := range out {
				dst[j] += v
			}
			ex.locks[be.To].Unlock()
			if ex.tracer.Enabled() {
				// One event per member edge, partitioning the block's wall
				// time so the utilization analysis conserves operator mass.
				now := ex.tracer.Now()
				ex.tracer.Record(w.GlobalID, trace.Event{
					Class:    uint8(dag.OpM2L),
					Worker:   int32(w.GlobalID),
					Locality: int32(w.Rank()),
					Start:    t0,
					End:      now,
				})
				t0 = now
			}
			if ex.remaining[be.To].Add(-1) == 0 {
				ex.fireNode(w, be.To)
			}
		}
	}
	ex.batchScratch.Put(sc)
}

// runBatchP2P applies one near-field batch: the source leaves of every
// member edge are gathered into chunks and swept through the kernel's tiled
// P2P under the single target lock, then the LCO countdown runs per edge.
//
//dashmm:noalloc
func (ex *executor) runBatchP2P(w *amt.Worker, pi int32) {
	pb := &ex.batches.P2P[pi]
	sc := ex.batchScratch.Get().(*batchScratch)
	st := ex.st
	sc.chunks = sc.chunks[:0]
	for _, be := range pb.Edges {
		sb := ex.g.Nodes[be.From].Box
		sc.chunks = append(sc.chunks, kernel.P2PChunk{
			Pts: st.srcPts(sb),
			Q:   st.q[sb.Lo:sb.Hi],
		})
	}
	tb := ex.g.Nodes[pb.Target].Box
	var t0 int64
	if ex.tracer.Enabled() {
		t0 = ex.tracer.Now()
	}
	ex.locks[pb.Target].Lock()
	ex.bk.P2P(sc.chunks, st.tgtPts(tb), st.pot[tb.Lo:tb.Hi])
	ex.locks[pb.Target].Unlock()
	if ex.tracer.Enabled() {
		// One event per member edge: the first spans the sweep, the rest are
		// zero-width markers, conserving both event counts and time mass.
		end := ex.tracer.Now()
		for k := range pb.Edges {
			start := end
			if k == 0 {
				start = t0
			}
			ex.tracer.Record(w.GlobalID, trace.Event{
				Class:    uint8(dag.OpS2T),
				Worker:   int32(w.GlobalID),
				Locality: int32(w.Rank()),
				Start:    start,
				End:      end,
			})
		}
	}
	if ex.remaining[pb.Target].Add(-int32(len(pb.Edges))) == 0 {
		ex.fireNode(w, pb.Target)
	}
	ex.batchScratch.Put(sc)
}
