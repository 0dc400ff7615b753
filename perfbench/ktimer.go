package main

import (
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/kernel"
)

// Kernel operator classes timed by timedKernel, in the order the metrics
// are printed. M2LBatch and P2P are the batched surfaces of
// kernel.BatchKernel; the rest are the per-edge operators of kernel.Kernel.
const (
	opS2M = iota
	opS2L
	opS2T
	opM2M
	opM2L
	opL2L
	opL2T
	opM2T
	opM2I
	opI2I
	opI2L
	opM2LBatch
	opP2P
	numOps
)

var opNames = [numOps]string{
	"S2M", "S2L", "S2T", "M2M", "M2L", "L2L", "L2T", "M2T", "M2I", "I2I", "I2L", "M2LBatch", "P2P",
}

// opCounter is one operator class's call count and busy time. The padding
// keeps classes on separate cache lines, so two workers applying different
// operators do not contend on the counters.
type opCounter struct {
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds
	_     [48]byte
}

// opSnapshot is a point-in-time copy of every counter.
type opSnapshot struct {
	calls [numOps]int64
	busy  [numOps]time.Duration
}

// sub returns the counts accumulated between prev and s.
func (s opSnapshot) sub(prev opSnapshot) opSnapshot {
	var d opSnapshot
	for i := range s.calls {
		d.calls[i] = s.calls[i] - prev.calls[i]
		d.busy[i] = s.busy[i] - prev.busy[i]
	}
	return d
}

// totalBusy sums the busy time of every class.
func (s opSnapshot) totalBusy() time.Duration {
	var t time.Duration
	for _, b := range s.busy {
		t += b
	}
	return t
}

// timedKernel forwards every operator to the wrapped kernel and records,
// per operator class, the number of calls and the wall time spent inside
// them. It embeds kernel.BatchKernel, so dag.BuildBatches and the core
// executor still take the batched path through it; Prepare is timed
// separately because it runs once per plan, outside any evaluation.
type timedKernel struct {
	kernel.BatchKernel
	ops     [numOps]opCounter
	prepare atomic.Int64 // nanoseconds spent in Prepare
}

func newTimedKernel(k kernel.BatchKernel) *timedKernel {
	return &timedKernel{BatchKernel: k}
}

func (t *timedKernel) snapshot() opSnapshot {
	var s opSnapshot
	for i := range t.ops {
		s.calls[i] = t.ops[i].calls.Load()
		s.busy[i] = time.Duration(t.ops[i].busy.Load())
	}
	return s
}

func (t *timedKernel) done(op int, start time.Time) {
	t.ops[op].busy.Add(int64(time.Since(start)))
	t.ops[op].calls.Add(1)
}

func (t *timedKernel) Prepare(rootSide float64, maxLevel int) {
	start := time.Now()
	t.BatchKernel.Prepare(rootSide, maxLevel)
	t.prepare.Add(int64(time.Since(start)))
}

func (t *timedKernel) S2M(c geom.Point, spts []geom.Point, q []float64, out []complex128) {
	start := time.Now()
	t.BatchKernel.S2M(c, spts, q, out)
	t.done(opS2M, start)
}

func (t *timedKernel) S2L(c geom.Point, spts []geom.Point, q []float64, out []complex128) {
	start := time.Now()
	t.BatchKernel.S2L(c, spts, q, out)
	t.done(opS2L, start)
}

func (t *timedKernel) S2T(spts []geom.Point, q []float64, tpts []geom.Point, pot []float64) {
	start := time.Now()
	t.BatchKernel.S2T(spts, q, tpts, pot)
	t.done(opS2T, start)
}

func (t *timedKernel) M2M(from, to geom.Point, childSide float64, in, out []complex128) {
	start := time.Now()
	t.BatchKernel.M2M(from, to, childSide, in, out)
	t.done(opM2M, start)
}

func (t *timedKernel) M2L(from, to geom.Point, side float64, in, out []complex128) {
	start := time.Now()
	t.BatchKernel.M2L(from, to, side, in, out)
	t.done(opM2L, start)
}

func (t *timedKernel) L2L(from, to geom.Point, childSide float64, in, out []complex128) {
	start := time.Now()
	t.BatchKernel.L2L(from, to, childSide, in, out)
	t.done(opL2L, start)
}

func (t *timedKernel) L2T(c geom.Point, l []complex128, tpts []geom.Point, pot []float64) {
	start := time.Now()
	t.BatchKernel.L2T(c, l, tpts, pot)
	t.done(opL2T, start)
}

func (t *timedKernel) M2T(c geom.Point, m []complex128, tpts []geom.Point, pot []float64) {
	start := time.Now()
	t.BatchKernel.M2T(c, m, tpts, pot)
	t.done(opM2T, start)
}

func (t *timedKernel) M2I(dir geom.Direction, level int, in, out []complex128) {
	start := time.Now()
	t.BatchKernel.M2I(dir, level, in, out)
	t.done(opM2I, start)
}

func (t *timedKernel) I2I(dir geom.Direction, level int, shift geom.Point, in, out []complex128) {
	start := time.Now()
	t.BatchKernel.I2I(dir, level, shift, in, out)
	t.done(opI2I, start)
}

func (t *timedKernel) I2L(dir geom.Direction, level int, in, out []complex128) {
	start := time.Now()
	t.BatchKernel.I2L(dir, level, in, out)
	t.done(opI2L, start)
}

func (t *timedKernel) M2LBatch(offs []kernel.M2LOffset, side float64, level int, ins, outs [][]complex128) {
	start := time.Now()
	t.BatchKernel.M2LBatch(offs, side, level, ins, outs)
	t.done(opM2LBatch, start)
}

func (t *timedKernel) P2P(chunks []kernel.P2PChunk, tpts []geom.Point, pot []float64) {
	start := time.Now()
	t.BatchKernel.P2P(chunks, tpts, pot)
	t.done(opP2P, start)
}
