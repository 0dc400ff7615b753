package core

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
)

// batchTestPlan builds a plan over the given distribution and kernel, plus
// its sequential reference.
func batchTestPlan(t *testing.T, method dag.Method, d points.Distribution, k kernel.Kernel, n int) (*Plan, []float64, []float64) {
	t.Helper()
	sp := points.Generate(d, n, 1)
	tp := points.Generate(d, n, 2)
	q := points.Charges(n, 3)
	plan, err := NewPlan(sp, tp, k, Options{Method: method, Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.EvaluateSequential(q)
	if err != nil {
		t.Fatal(err)
	}
	return plan, q, want
}

// TestBatchedEvaluateMatchesPerEdge is the tentpole accuracy gate: on both
// geometries and both kernels, for the method with dense M->L list-2
// traffic (Basic) and the default plane-wave method (Advanced, where only
// the near field batches), the batched evaluation must agree with the
// forced per-edge evaluation and with the sequential reference to 1e-12.
func TestBatchedEvaluateMatchesPerEdge(t *testing.T) {
	p := kernel.OrderForDigits(3)
	for _, kc := range []struct {
		name string
		k    kernel.Kernel
	}{
		{"laplace", kernel.NewLaplace(p)},
		{"yukawa", kernel.NewYukawa(p, 4.0)},
	} {
		for _, d := range []struct {
			name string
			dist points.Distribution
		}{
			{"cube", points.Cube},
			{"sphere", points.Sphere},
		} {
			for _, m := range []dag.Method{dag.Basic, dag.Advanced} {
				plan, q, want := batchTestPlan(t, m, d.dist, kc.k, 1500)
				if m == dag.Basic && len(plan.batches.M2L) == 0 {
					t.Fatalf("%s/%s/%v: no M2L batches built", kc.name, d.name, m)
				}
				if len(plan.batches.P2P) == 0 {
					t.Fatalf("%s/%s/%v: no P2P batches built", kc.name, d.name, m)
				}
				batched, _, err := plan.Evaluate(q, ExecOptions{Localities: 2, Workers: 2})
				if err != nil {
					t.Fatalf("%s/%s/%v batched: %v", kc.name, d.name, m, err)
				}
				perEdge, _, err := plan.Evaluate(q, ExecOptions{Localities: 2, Workers: 2, PerEdge: true})
				if err != nil {
					t.Fatalf("%s/%s/%v per-edge: %v", kc.name, d.name, m, err)
				}
				assertSame(t, batched, perEdge, 1e-12)
				assertSame(t, batched, want, 1e-9)
			}
		}
	}
}

// TestBatchedMixedLatticeFallsBackPerEdge is the end-to-end mirror of
// kernel.TestM2LCacheFallsBackOffLattice: with part of the list-2 geometry
// pushed off the interaction lattice, BuildBatches must leave those edges
// unbatched, the executor must run the resulting batched/per-edge mix, and
// the potentials must match a fully per-edge evaluation to 1e-12.
func TestBatchedMixedLatticeFallsBackPerEdge(t *testing.T) {
	plan, q, _ := testPlan(t, dag.Basic, 1500)

	// Nudge some source boxes with list-2 edges off the lattice. The graph
	// and the sequential reference both read the same mutated centers, so
	// this stays a pure batched-vs-per-edge comparison.
	perturbed := 0
	for i := range plan.Graph.Nodes {
		n := &plan.Graph.Nodes[i]
		if n.Kind != dag.NodeM || len(n.Out) == 0 || n.Out[0].Op != dag.OpM2L {
			continue
		}
		if perturbed%3 == 0 {
			n.Box.Center = n.Box.Center.Add(geom.Point{X: 0.3071 * n.Box.Side})
		}
		perturbed++
	}
	if perturbed < 3 {
		t.Fatalf("only %d list-2 sources found, fixture too small", perturbed)
	}
	plan.batches = dag.BuildBatches(plan.Graph, plan.Kernel)

	var batchedEdges, fallbackEdges int
	for i := range plan.Graph.Nodes {
		for _, e := range plan.Graph.Nodes[i].Out {
			if e.Op != dag.OpM2L {
				continue
			}
			if e.Batched {
				batchedEdges++
			} else {
				fallbackEdges++
			}
		}
	}
	if batchedEdges == 0 || fallbackEdges == 0 {
		t.Fatalf("want a batched/per-edge mix, got %d batched, %d fallback", batchedEdges, fallbackEdges)
	}

	got, _, err := plan.Evaluate(q, ExecOptions{Localities: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := plan.Evaluate(q, ExecOptions{Localities: 2, Workers: 2, PerEdge: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, got, want, 1e-12)
}

// TestBatchedSteadyStateAllocsPerEdge extends the zero-allocation gate to
// the batched hot path, on the method whose list-2 traffic is dense M->L.
func TestBatchedSteadyStateAllocsPerEdge(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	plan, q, _ := testPlan(t, dag.Basic, 2500)
	if plan.batches.Empty() {
		t.Fatal("no batches built for the Basic-method plan")
	}
	pe, err := plan.NewParallelEvaluation(ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := pe.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	edges := float64(plan.Graph.NumEdges())
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := pe.Run(q); err != nil {
			t.Fatal(err)
		}
	})
	perEdge := allocs / edges
	t.Logf("allocs/run = %.0f over %.0f edges -> %.4f per edge", allocs, edges, perEdge)
	if perEdge > 0.05 {
		t.Errorf("batched steady-state allocations %.4f per edge exceed 0.05 (%.0f per run)", perEdge, allocs)
	}
}
