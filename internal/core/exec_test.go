package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/amt"
	"repro/internal/dag"
	"repro/internal/dist"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/trace"
)

func testPlan(t *testing.T, method dag.Method, n int) (*Plan, []float64, []float64) {
	t.Helper()
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	q := points.Charges(n, 3)
	k := kernel.NewLaplace(6)
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

func assertSame(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	var den float64
	for i := range want {
		if m := math.Abs(want[i]); m > den {
			den = m
		}
	}
	for i := range got {
		if math.Abs(got[i]-want[i])/den > tol {
			t.Fatalf("potential %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 3000)
	for _, cfg := range []struct{ locs, workers int }{
		{1, 1}, {1, 4}, {2, 2}, {4, 1}, {4, 4},
	} {
		got, rep, err := plan.Evaluate(q, ExecOptions{
			Localities: cfg.locs, Workers: cfg.workers,
		})
		if err != nil {
			t.Fatalf("%dx%d: %v", cfg.locs, cfg.workers, err)
		}
		// Floating-point addition order differs between runs, so allow a
		// tiny relative slack.
		assertSame(t, got, want, 1e-9)
		if cfg.locs > 1 && rep.Runtime.ParcelsSent == 0 {
			t.Errorf("%dx%d: no parcels sent across localities", cfg.locs, cfg.workers)
		}
		if cfg.locs == 1 && rep.Runtime.ParcelsSent != 0 {
			t.Errorf("single locality sent %d parcels", rep.Runtime.ParcelsSent)
		}
	}
}

func TestParallelAllPolicies(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 2000)
	for _, pol := range []dist.Policy{dist.Block{}, dist.Cyclic{}, dist.MinComm{}} {
		got, _, err := plan.Evaluate(q, ExecOptions{Localities: 3, Workers: 2, Policy: pol})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		assertSame(t, got, want, 1e-9)
	}
}

func TestParallelAllMethods(t *testing.T) {
	for _, m := range []dag.Method{dag.Advanced, dag.Basic, dag.BarnesHut} {
		plan, q, want := testPlan(t, m, 1500)
		got, _, err := plan.Evaluate(q, ExecOptions{Localities: 2, Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		assertSame(t, got, want, 1e-9)
	}
}

func TestMinCommReducesTraffic(t *testing.T) {
	plan, q, _ := testPlan(t, dag.Advanced, 4000)
	_, repCyc, err := plan.Evaluate(q, ExecOptions{Localities: 4, Policy: dist.Cyclic{}})
	if err != nil {
		t.Fatal(err)
	}
	_, repMin, err := plan.Evaluate(q, ExecOptions{Localities: 4, Policy: dist.MinComm{}})
	if err != nil {
		t.Fatal(err)
	}
	if repMin.RemoteBytes >= repCyc.RemoteBytes {
		t.Errorf("mincomm bytes %d not below cyclic %d", repMin.RemoteBytes, repCyc.RemoteBytes)
	}
	// Coalescing: parcels sent must be no more than remote edges.
	if repMin.Runtime.ParcelsSent > repMin.RemoteEdges {
		t.Errorf("parcels %d exceed remote edges %d: coalescing broken",
			repMin.Runtime.ParcelsSent, repMin.RemoteEdges)
	}
}

func TestTraceEventsCoverAllOps(t *testing.T) {
	plan, q, _ := testPlan(t, dag.Advanced, 3000)
	tr := trace.New(2 * 2)
	_, _, err := plan.Evaluate(q, ExecOptions{Localities: 2, Workers: 2, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Snapshot()
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	// Every edge application records exactly one event.
	if int64(len(events)) != plan.Graph.NumEdges() {
		t.Errorf("%d events for %d edges", len(events), plan.Graph.NumEdges())
	}
	// All the advanced-FMM operator classes appear.
	seen := map[uint8]bool{}
	for _, ev := range events {
		if ev.End < ev.Start {
			t.Fatalf("event with negative duration: %+v", ev)
		}
		seen[ev.Class] = true
	}
	for _, op := range []dag.OpKind{dag.OpS2M, dag.OpM2M, dag.OpM2I, dag.OpI2I, dag.OpI2L, dag.OpL2L, dag.OpL2T, dag.OpS2T} {
		if !seen[uint8(op)] {
			t.Errorf("no events for %v", op)
		}
	}
	// Utilization analysis over the run must be positive and bounded.
	start, end := trace.Span(events)
	u := trace.Analyze(events, 4, 50, start, end)
	var maxU float64
	for _, v := range u.Total {
		if v > maxU {
			maxU = v
		}
	}
	if maxU <= 0 {
		t.Error("utilization all zero")
	}
}

// TestFaultInjectedEvaluationMatches: a lossy, duplicating, reordering wire
// must not change the computed potentials — the delivery layer retries lost
// parcels and dedups duplicated ones before any LCO input is applied.
func TestFaultInjectedEvaluationMatches(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 2500)
	tr := trace.New(4 * 2)
	got, rep, err := plan.Evaluate(q, ExecOptions{
		Localities: 4, Workers: 2, Seed: 11, Tracer: tr,
		Fault: &amt.FaultProfile{Seed: 11, Drop: 0.1, Duplicate: 0.1, Reorder: true},
		Delivery: amt.DeliveryConfig{
			RetryBase: 2 * time.Millisecond,
			Deadline:  60 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, got, want, 1e-12)
	ts := rep.Runtime.Transport
	if ts.Dropped == 0 || ts.Duplicated == 0 {
		t.Errorf("fault profile injected nothing: %+v", ts)
	}
	if ts.Retried == 0 {
		t.Error("no retries despite 10%% drop")
	}
	if ts.Deduped == 0 {
		t.Error("no dedups despite 10%% duplication")
	}
	if ts.DeadlineExceeded != 0 {
		t.Errorf("%d parcels exceeded the deadline", ts.DeadlineExceeded)
	}
	// The fault markers land in the trace alongside operator events.
	var retries, wireFaults int
	for _, ev := range tr.Snapshot() {
		switch ev.Class {
		case trace.ClassNetRetry:
			retries++
		case trace.ClassNetDrop, trace.ClassNetDup:
			wireFaults++
		}
	}
	if retries == 0 || wireFaults == 0 {
		t.Errorf("trace recorded %d retry and %d wire-fault events, want both > 0", retries, wireFaults)
	}
}

// TestDeliveryDeadlineSurfacesInError: when parcels are abandoned the
// evaluation must fail loudly and name the transport as the cause.
func TestDeliveryDeadlineSurfacesInError(t *testing.T) {
	plan, q, _ := testPlan(t, dag.Advanced, 1000)
	_, _, err := plan.Evaluate(q, ExecOptions{
		Localities: 2, Workers: 1, Seed: 3,
		Fault: &amt.FaultProfile{Seed: 3, Drop: 1.0},
		Delivery: amt.DeliveryConfig{
			RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
			Deadline: 50 * time.Millisecond,
		},
	})
	if err == nil {
		t.Fatal("evaluation over a fully lossy wire reported success")
	}
	if !strings.Contains(err.Error(), "delivery deadline") {
		t.Errorf("error does not name the transport: %v", err)
	}
}

func TestLatencyInjection(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 1000)
	t0 := time.Now()
	got, _, err := plan.Evaluate(q, ExecOptions{Localities: 2, Workers: 1, Latency: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(t0) < 2*time.Millisecond {
		t.Error("run finished faster than one latency")
	}
	assertSame(t, got, want, 1e-9)
}

func TestPriorityExecutionMatchesAndBiasesOrder(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 3000)
	tr := trace.New(2)
	got, _, err := plan.Evaluate(q, ExecOptions{Workers: 2, Tracer: tr, Priority: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, got, want, 1e-9)
	// With priority hints the upward sweep (S->M, M->M) must complete
	// earlier in the run than without them.
	lastUp := func(events []trace.Event) float64 {
		start, end := trace.Span(events)
		var last int64
		for _, ev := range events {
			if ev.Class == uint8(dag.OpS2M) || ev.Class == uint8(dag.OpM2M) {
				if ev.End > last {
					last = ev.End
				}
			}
		}
		return float64(last-start) / float64(end-start)
	}
	withPrio := lastUp(tr.Snapshot())
	tr2 := trace.New(2)
	if _, _, err := plan.Evaluate(q, ExecOptions{Workers: 2, Tracer: tr2}); err != nil {
		t.Fatal(err)
	}
	withoutPrio := lastUp(tr2.Snapshot())
	if withPrio > withoutPrio+0.05 {
		t.Errorf("priority did not pull the upward sweep forward: %.2f vs %.2f",
			withPrio, withoutPrio)
	}
}

// TestWatchdogDiagnosesStall: a run that can make no progress (every
// remote parcel dropped, deadline far away) must be aborted by the
// watchdog with a diagnostic listing the unsatisfied LCOs.
func TestWatchdogDiagnosesStall(t *testing.T) {
	plan, q, _ := testPlan(t, dag.Advanced, 1000)
	start := time.Now()
	_, _, err := plan.Evaluate(q, ExecOptions{
		Localities: 2, Workers: 1, Seed: 3,
		Fault: &amt.FaultProfile{Seed: 3, Drop: 1.0},
		Delivery: amt.DeliveryConfig{
			RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
			Deadline: 120 * time.Second,
		},
		StallWindow: 300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("stalled evaluation reported success")
	}
	if time.Since(start) > 30*time.Second {
		t.Fatalf("watchdog took %s to fire", time.Since(start))
	}
	msg := err.Error()
	if !strings.Contains(msg, "stalled") {
		t.Fatalf("error does not say stalled: %v", err)
	}
	if !strings.Contains(msg, "unsatisfied LCO") || !strings.Contains(msg, "inputs arrived") {
		t.Errorf("diagnostic does not list unsatisfied LCOs: %v", err)
	}
	if !strings.Contains(msg, "on rank") {
		t.Errorf("diagnostic does not name owner ranks: %v", err)
	}
}

// TestWatchdogQuietOnHealthyRun: the watchdog must not fire on a run that
// completes normally.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 1500)
	got, _, err := plan.Evaluate(q, ExecOptions{
		Localities: 2, Workers: 2, StallWindow: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, got, want, 1e-9)
}
