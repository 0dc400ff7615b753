package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
)

// The timing decorator must be invisible to the evaluation: on both library
// shapes (at a reduced size) the sequential potentials through it equal the
// plain kernel's bit for bit, and the plan keeps the same batches.
func TestTimedKernelIsTransparent(t *testing.T) {
	for _, w := range workloads {
		if w.serve {
			continue
		}
		w := w
		t.Run(w.name, func(t *testing.T) {
			s := w.shape
			s.n = 1500
			if testing.Short() {
				s.n = 600
			}
			p := newProblem(s)
			q := p.charges(1, 0)

			plain := s.newKernel()
			plainPlan, err := core.NewPlan(p.src, p.tgt, plain, p.planOptions())
			if err != nil {
				t.Fatal(err)
			}
			want, err := plainPlan.EvaluateSequential(q)
			if err != nil {
				t.Fatal(err)
			}
			// The timed plan wraps the same kernel instance, so its operator
			// tables are already built; only the decorator differs.
			kt := newTimedKernel(plain)
			timedPlan, err := core.NewPlan(p.src, p.tgt, kt, p.planOptions())
			if err != nil {
				t.Fatal(err)
			}
			got, err := timedPlan.EvaluateSequential(q)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("potential %d: timed %v, plain %v", i, got[i], want[i])
				}
			}
			nPlain := dag.BuildBatches(plainPlan.Graph, plain).NumBatches()
			nTimed := dag.BuildBatches(timedPlan.Graph, kt).NumBatches()
			if nPlain == 0 || nTimed != nPlain {
				t.Fatalf("batches: timed %d, plain %d", nTimed, nPlain)
			}

			// The parallel executor still takes the batched path through the
			// decorator, and every call is counted.
			pe, err := timedPlan.NewParallelEvaluation(p.execOptions())
			if err != nil {
				t.Fatal(err)
			}
			before := kt.snapshot()
			if _, _, err := pe.Run(q); err != nil {
				t.Fatal(err)
			}
			d := kt.snapshot().sub(before)
			if d.calls[opP2P] == 0 {
				t.Errorf("no tiled P2P calls through the decorator: %v", d.calls)
			}
			if s.method == dag.Basic && d.calls[opM2LBatch] == 0 {
				t.Errorf("no batched M2L calls through the decorator: %v", d.calls)
			}
			if d.calls[opS2T] != 0 {
				t.Errorf("%d per-edge S2T calls on the batched path", d.calls[opS2T])
			}
		})
	}
}
