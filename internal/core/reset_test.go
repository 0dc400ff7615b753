package core

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/points"
)

// The pooled-runtime path of ParallelEvaluation: the first Run builds the
// runtime, every following Run re-arms it (RuntimeReused), and the results
// stay bit-compatible with the sequential reference across generations.
func TestParallelEvaluationRuntimeReuse(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 2500)
	pe, err := plan.NewParallelEvaluation(ExecOptions{Localities: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 4; run++ {
		got, rep, err := pe.Run(q)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		assertSame(t, got, want, 1e-9)
		if run == 0 && rep.RuntimeReused {
			t.Error("first run cannot reuse a runtime")
		}
		if run > 0 && !rep.RuntimeReused {
			t.Errorf("run %d rebuilt the runtime instead of reusing it", run)
		}
		if rep.Runtime.TasksRun == 0 {
			t.Errorf("run %d reports zero tasks (stale per-generation stats?)", run)
		}
	}
	// A different charge vector on the reused runtime still evaluates
	// correctly (the payload reset is per-run, the runtime per-context).
	q2 := points.Charges(len(q), 17)
	want2, err := plan.EvaluateSequential(q2)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := pe.Run(q2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RuntimeReused {
		t.Error("charge swap dropped the pooled runtime")
	}
	assertSame(t, got, want2, 1e-9)
}

// Plan.Reset re-arms every evaluation context created from the plan: after
// a Reset (as the serving layer issues following a failed request) both the
// sequential and the parallel contexts still produce correct results.
func TestPlanResetReexecutable(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 1500)
	ev, err := plan.NewEvaluation()
	if err != nil {
		t.Fatal(err)
	}
	pe, err := plan.NewParallelEvaluation(ExecOptions{Localities: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty both contexts with a run, then Reset the plan and re-run.
	if _, err := ev.Run(q); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pe.Run(q); err != nil {
		t.Fatal(err)
	}
	plan.Reset()
	got, err := ev.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, got, want, 1e-12)
	pgot, rep, err := pe.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, pgot, want, 1e-9)
	if rep.RuntimeReused {
		t.Error("Plan.Reset must discard the pooled runtime (conservative re-arm)")
	}
	// The run after the post-Reset one pools again.
	if _, rep, err = pe.Run(q); err != nil || !rep.RuntimeReused {
		t.Errorf("pooling did not resume after Reset: reused=%v err=%v", rep.RuntimeReused, err)
	}
}
