package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/tree"
)

// minPairs is the fewest solve/direct pairs (or blocks, in the untraced
// window) a window measures, however short --seconds is, so every median
// rests on at least three samples.
const minPairs = 3

// problem is a shape with its geometry generated and a plain kernel for
// direct summation (S2T needs no tables, so it is never prepared).
type problem struct {
	s        shape
	src, tgt []geom.Point
	kd       kernel.Kernel
}

func newProblem(s shape) *problem {
	return &problem{
		s:   s,
		src: points.Generate(s.dist, s.n, 1),
		tgt: points.Generate(s.dist, s.n, 2),
		kd:  s.newKernel(),
	}
}

// chargeSeed is the seed of charge vector i of a run: distinct per run seed
// and per vector, and never 0 (which the server reads as "default").
func chargeSeed(seed int64, i int) int64 {
	return 1 + (seed&0xffffffff)<<20 + int64(i)
}

func (p *problem) charges(seed int64, i int) []float64 {
	return points.Charges(p.s.n, chargeSeed(seed, i))
}

// direct returns the exact potentials for q and the time the O(N^2) sum
// took with the shape's worker count.
func (p *problem) direct(q []float64) ([]float64, time.Duration) {
	start := time.Now()
	ref := baseline.Direct(p.kd, p.src, q, p.tgt, p.s.workers)
	return ref, time.Since(start)
}

func (p *problem) planOptions() core.Options { return core.Options{Method: p.s.method} }

func (p *problem) execOptions() core.ExecOptions { return core.ExecOptions{Workers: p.s.workers} }

// setup builds a plan and an evaluation context on kernel k and runs the
// first evaluation, which builds the lazily tabulated operators.
func (p *problem) setup(k kernel.Kernel, q []float64) (*core.ParallelEvaluation, []float64, error) {
	plan, err := core.NewPlan(p.src, p.tgt, k, p.planOptions())
	if err != nil {
		return nil, nil, fmt.Errorf("building plan: %w", err)
	}
	pe, err := plan.NewParallelEvaluation(p.execOptions())
	if err != nil {
		return nil, nil, fmt.Errorf("creating evaluation: %w", err)
	}
	pot, _, err := pe.Run(q)
	return pe, pot, err
}

// checkSolve counts one solve and checks it against the direct reference.
// It returns the relative L2 error (0 when the solve failed).
func (r *run) checkSolve(p *problem, pot []float64, err error, ref []float64) float64 {
	if err != nil {
		r.attempt(false)
		r.wrong("solve failed: %v", err)
		return 0
	}
	e := relL2(pot, ref)
	ok := e <= p.s.tolerance()
	r.attempt(ok)
	if !ok {
		r.wrong("relative L2 error %.3g exceeds the %d-digit contract", e, p.s.digits)
	}
	return e
}

// combine returns a + c*b.
func combine(a []float64, c float64, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + c*b[i]
	}
	return out
}

// liveHeap returns the heap bytes still reachable after a full collection.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func runLibrary(r *run, w *workload) error {
	p := newProblem(w.shape)
	if r.trace {
		probeLayers(r, p)
		return probeServe(r)
	}
	q0 := p.charges(r.seed, 0)
	ref0, _ := p.direct(q0)

	// Set-up: from ensemble in hand to the first potentials, each time with
	// a fresh kernel so the lazily built operator tables are paid again.
	base := liveHeap()
	var setups []float64
	var pe *core.ParallelEvaluation
	for i := 0; i < w.setups; i++ {
		pe = nil
		runtime.GC()
		k := w.shape.newKernel()
		start := time.Now()
		e, pot, err := p.setup(k, q0)
		setups = append(setups, time.Since(start).Seconds())
		r.checkSolve(p, pot, err, ref0)
		if err != nil {
			return err
		}
		pe = e
	}
	heap := liveHeap() - base

	// Warm window: one caller, one plan, a new charge vector per solve. The
	// window is a run of blocks, each one direct sum and w.solvesPerDirect
	// warm solves back to back, the direct first in every other block; each
	// timing starts from a collected heap. A block's speedup is its direct
	// time over its mean solve time, measured within seconds of each other.
	//
	// Solve j of a block takes the block's direct-summed charges plus j/k
	// times the previous block's (k = w.solvesPerDirect). The potentials are
	// linear in the charges, so the same combination of the two direct sums
	// is the exact reference every solve is checked against over all
	// targets, outside the timings.
	var solves, speedups []float64
	prevQ, prevRef := q0, ref0
	k := w.solvesPerDirect
	deadline := time.Now().Add(r.seconds)
	for b, i := 0, 1; b < minPairs || time.Now().Before(deadline); b++ {
		q := p.charges(r.seed, b+1)
		var ref []float64
		var td time.Duration
		direct := func() {
			runtime.GC()
			ref, td = p.direct(q)
		}
		if b%2 == 0 {
			direct()
		}
		pots := make([][]float64, k)
		errs := make([]error, k)
		times := make([]float64, k)
		for j := 0; j < k; j++ {
			qj := combine(q, float64(j)/float64(k), prevQ)
			runtime.GC()
			start := time.Now()
			pots[j], _, errs[j] = pe.Run(qj)
			times[j] = time.Since(start).Seconds()
		}
		if b%2 == 1 {
			direct()
		}
		mean := 0.0
		for j := 0; j < k; j++ {
			e := r.checkSolve(p, pots[j], errs[j], combine(ref, float64(j)/float64(k), prevRef))
			fmt.Printf("# solve %d: %.4f s, error %.2g\n", i, times[j], e)
			mean += times[j] / float64(k)
			i++
		}
		solves = append(solves, times...)
		speedups = append(speedups, td.Seconds()/mean)
		fmt.Printf("# block %d: direct %.4f s, mean solve %.4f s, speedup %.4f\n", b+1, td.Seconds(), mean, td.Seconds()/mean)
		prevQ, prevRef = q, ref
	}
	runtime.KeepAlive(pe)
	fmt.Printf("# warm solve median %.4f s over %d solves\n", median(solves), len(solves))

	r.set("setup_s", median(setups), "s")
	r.set("speedup_vs_direct", median(speedups), "x")
	r.set("heap_mb", heap/1e6, "MB")
	return nil
}

// layerCounts are the exact counts the tree and DAG layers produce for one
// problem; they must repeat from build to build.
type layerCounts struct {
	boxes, levels, nodes, batches int
	edges                         [dag.NumOpKinds]int64
}

// dagOpNames spells the DAG operator classes as metric-name segments.
var dagOpNames = [dag.NumOpKinds]string{
	dag.OpS2M: "S2M", dag.OpM2M: "M2M", dag.OpM2L: "M2L", dag.OpL2L: "L2L",
	dag.OpL2T: "L2T", dag.OpM2T: "M2T", dag.OpS2L: "S2L", dag.OpS2T: "S2T",
	dag.OpM2I: "M2I", dag.OpI2I: "I2I", dag.OpI2L: "I2L",
}

// layerReps is how often the traced run repeats each plan-building layer;
// times are medians and counts must agree across the repeats.
const layerReps = 3

// probeLayers is the traced run of one problem. It times calls into the
// tree, dag, kernel, core, amt and baseline layers from this file and
// reports the per-layer metrics; the kernel operators are timed through
// timedKernel.
func probeLayers(r *run, p *problem) {
	kt := newTimedKernel(p.s.newKernel())
	dom := geom.BoundingCube(p.src, p.tgt)
	var treeS, listS, prepS, dagS, batchS []float64
	var first layerCounts
	for rep := 0; rep < layerReps; rep++ {
		t0 := time.Now()
		st := tree.Build(p.src, dom, tree.Threshold)
		tt := tree.Build(p.tgt, dom, tree.Threshold)
		t1 := time.Now()
		lists := tree.DualLists(tt, st)
		t2 := time.Now()
		maxLevel := st.MaxLevel
		if tt.MaxLevel > maxLevel {
			maxLevel = tt.MaxLevel
		}
		prep0 := kt.prepare.Load()
		kt.Prepare(dom.Side, maxLevel+1)
		prepS = append(prepS, time.Duration(kt.prepare.Load()-prep0).Seconds())
		t3 := time.Now()
		g := dag.Build(dag.Config{Method: p.s.method}, st, tt, lists, kt)
		t4 := time.Now()
		b := dag.BuildBatches(g, kt)
		t5 := time.Now()
		treeS = append(treeS, t1.Sub(t0).Seconds())
		listS = append(listS, t2.Sub(t1).Seconds())
		dagS = append(dagS, t4.Sub(t3).Seconds())
		batchS = append(batchS, t5.Sub(t4).Seconds())
		c := layerCounts{boxes: len(st.Boxes) + len(tt.Boxes), levels: maxLevel + 1,
			nodes: len(g.Nodes), batches: b.NumBatches(), edges: g.EdgeCount}
		if rep == 0 {
			first = c
		} else if c != first {
			r.wrong("tree/dag counts drifted between builds: %+v vs %+v", c, first)
		}
	}
	r.set("tree.build_s", median(treeS), "s")
	r.set("tree.lists_s", median(listS), "s")
	r.set("tree.boxes", float64(first.boxes), "count")
	r.set("tree.levels", float64(first.levels), "count")
	r.set("kernel.prepare_s", median(prepS), "s")
	r.set("dag.build_s", median(dagS), "s")
	r.set("dag.batches_s", median(batchS), "s")
	r.set("dag.nodes", float64(first.nodes), "count")
	for op, n := range first.edges {
		r.set("dag.edges."+dagOpNames[op], float64(n), "count")
	}

	probeExecution(r, p, kt, first)
}

// probeExecution times the evaluations of the traced run: a cold solve and
// warm solves through the timed kernel, warm solves of an untimed plan on
// the same (by then fully tabulated) kernel for the tracing overhead, one
// per-edge solve for the batching gain, and the direct sums that check
// every one of them.
func probeExecution(r *run, p *problem, kt *timedKernel, counts layerCounts) {
	plan, err := core.NewPlan(p.src, p.tgt, kt, p.planOptions())
	if err != nil {
		r.wrong("building traced plan: %v", err)
		return
	}
	if plan.Graph.EdgeCount != counts.edges {
		r.wrong("plan DAG edge counts %v differ from the probed DAG %v", plan.Graph.EdgeCount, counts.edges)
	}
	start := time.Now()
	pe, err := plan.NewParallelEvaluation(p.execOptions())
	newEval := time.Since(start)
	if err != nil {
		r.wrong("creating traced evaluation: %v", err)
		return
	}

	var directs, errs []float64
	check := func(pot []float64, err error, ref []float64) {
		errs = append(errs, r.checkSolve(p, pot, err, ref))
	}
	q0 := p.charges(r.seed, 0)
	ref0, td := p.direct(q0)
	directs = append(directs, td.Seconds())
	before := kt.snapshot()
	pot, _, err := pe.Run(q0)
	cold := kt.snapshot().sub(before)
	check(pot, err, ref0)

	// The untimed plan shares the tabulated kernel; its first run rebuilds
	// only what re-preparing the kernel dropped and is not measured.
	plainPlan, err := core.NewPlan(p.src, p.tgt, kt.BatchKernel, p.planOptions())
	if err != nil {
		r.wrong("building untimed plan: %v", err)
		return
	}
	plain, err := plainPlan.NewParallelEvaluation(p.execOptions())
	if err != nil {
		r.wrong("creating untimed evaluation: %v", err)
		return
	}
	pot, _, err = plain.Run(q0)
	check(pot, err, ref0)

	var warm []opSnapshot
	var tracedS, plainS, utils, tasks, steals []float64
	var stealOK, stealTry int64
	var q, ref []float64
	deadline := time.Now().Add(r.seconds)
	for i := 1; i <= minPairs || time.Now().Before(deadline); i++ {
		q = p.charges(r.seed, i)
		var td time.Duration
		ref, td = p.direct(q)
		directs = append(directs, td.Seconds())
		traced := func() {
			before := kt.snapshot()
			start := time.Now()
			pot, rep, err := pe.Run(q)
			el := time.Since(start)
			d := kt.snapshot().sub(before)
			check(pot, err, ref)
			warm = append(warm, d)
			tracedS = append(tracedS, el.Seconds())
			utils = append(utils, d.totalBusy().Seconds()/(float64(p.s.workers)*el.Seconds()))
			tasks = append(tasks, float64(rep.Runtime.TasksRun))
			steals = append(steals, float64(rep.Runtime.Steals))
			stealOK += rep.Runtime.Steals
			stealTry += rep.Runtime.Steals + rep.Runtime.FailedSteals
		}
		untraced := func() {
			start := time.Now()
			pot, _, err := plain.Run(q)
			plainS = append(plainS, time.Since(start).Seconds())
			check(pot, err, ref)
		}
		if i%2 == 1 {
			traced()
			untraced()
		} else {
			untraced()
			traced()
		}
	}

	// Batched vs per-edge: one warm per-edge solve on the untimed plan
	// (after one unmeasured run that sizes its buffers), with the last
	// window's charges.
	perEdgeOpts := p.execOptions()
	perEdgeOpts.PerEdge = true
	perEdge, err := plainPlan.NewParallelEvaluation(perEdgeOpts)
	if err != nil {
		r.wrong("creating per-edge evaluation: %v", err)
		return
	}
	pot, _, err = perEdge.Run(q)
	check(pot, err, ref)
	start = time.Now()
	pot, _, err = perEdge.Run(q)
	perEdgeS := time.Since(start).Seconds()
	check(pot, err, ref)

	// Exact-count stability: every solve applies the same operators.
	for i, d := range warm {
		if d.calls != cold.calls {
			r.wrong("kernel call counts of warm solve %d %v differ from the cold solve %v", i+1, d.calls, cold.calls)
		}
	}
	for op := 0; op < numOps; op++ {
		var busy []float64
		for _, d := range warm {
			busy = append(busy, d.busy[op].Seconds())
		}
		r.set("kernel."+opNames[op]+".calls", float64(cold.calls[op]), "count")
		r.set("kernel."+opNames[op]+".busy_s", median(busy), "s")
		r.set("kernel."+opNames[op]+".cold_busy_s", cold.busy[op].Seconds(), "s")
	}
	plainSolve := median(plainS)
	r.set("core.solve_s", plainSolve, "s")
	r.set("core.new_eval_s", newEval.Seconds(), "s")
	r.set("core.util", median(utils), "ratio")
	r.set("core.batch_speedup", perEdgeS/plainSolve, "x")
	r.set("amt.tasks", median(tasks), "count")
	r.set("amt.steals", median(steals), "count")
	frac := 0.0
	if stealTry > 0 {
		frac = float64(stealOK) / float64(stealTry)
	}
	r.set("amt.steal_success_frac", frac, "ratio")
	r.set("baseline.direct_s", median(directs), "s")
	maxErr := 0.0
	for _, e := range errs {
		if e > maxErr {
			maxErr = e
		}
	}
	r.set("accuracy.rel_l2_error", maxErr, "ratio")
	r.set("trace.overhead_frac", median(tracedS)/plainSolve-1, "ratio")
	printSplit(warm, cold)
}

// printSplit prints each operator class's share of warm and cold kernel
// busy time as comment lines, the workload split the traced run confirms.
func printSplit(warm []opSnapshot, cold opSnapshot) {
	var warmBusy [numOps]float64
	var warmTotal float64
	for _, d := range warm {
		for op := range d.busy {
			warmBusy[op] += d.busy[op].Seconds()
			warmTotal += d.busy[op].Seconds()
		}
	}
	coldTotal := cold.totalBusy().Seconds()
	for op := 0; op < numOps; op++ {
		if warmBusy[op] == 0 && cold.busy[op] == 0 {
			continue
		}
		fmt.Printf("# split %-8s warm %5.1f%%  cold %5.1f%%\n", opNames[op],
			100*warmBusy[op]/warmTotal, 100*cold.busy[op].Seconds()/coldTotal)
	}
	pw := warmBusy[opM2I] + warmBusy[opI2I] + warmBusy[opI2L]
	fmt.Printf("# split plane-wave (M2I+I2I+I2L) share of warm kernel busy: %.1f%%\n", 100*pw/warmTotal)
}
