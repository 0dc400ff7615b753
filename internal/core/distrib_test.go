package core

import (
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/amt"
	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/points"
)

// distScenario builds the plan every rank constructs identically from the
// shared scenario parameters (SPMD: no plan is ever shipped over the wire).
func distScenario(t *testing.T, n int) (*Plan, []float64) {
	t.Helper()
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	q := points.Charges(n, 3)
	k := kernel.NewLaplace(6)
	plan, err := NewPlan(sp, tp, k, Options{Method: dag.Advanced, Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	return plan, q
}

// distClusters brings up a world of in-process clusters joined over unix
// sockets: rank 0 first (its listener must exist before workers dial), then
// the workers concurrently (their NewCluster blocks until WELCOME).
func distClusters(t *testing.T, world int, mut func(*amt.ClusterConfig)) []*amt.Cluster {
	t.Helper()
	addr := filepath.Join(t.TempDir(), "rank0.sock")
	cfg := func(rank int) amt.ClusterConfig {
		c := amt.ClusterConfig{
			Rank: rank, World: world, Network: "unix", Addr: addr,
			Stamp: "distrib-test-v1",
		}
		if mut != nil {
			mut(&c)
		}
		return c
	}
	cls := make([]*amt.Cluster, world)
	var err error
	if cls[0], err = amt.NewCluster(cfg(0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := 1; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cls[r], errs[r] = amt.NewCluster(cfg(r))
		}(r)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, cl := range cls {
			if cl != nil {
				cl.Close()
			}
		}
	})
	for r := 1; r < world; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d join: %v", r, errs[r])
		}
	}
	return cls
}

// distHeartbeat is the detector of every in-process test cluster. Four
// clusters plus four runtimes share one test process, so the 200ms default
// could falsely declare a busy rank dead on loaded CI (or under -race); a
// full second of silence before a verdict avoids that while a closed rank
// is still detected well within the tests' budgets.
func distHeartbeat(c *amt.ClusterConfig) {
	c.Heartbeat = amt.FailureDetectorConfig{Interval: 50 * time.Millisecond, MissedBeats: 20}
}

// distWorld is the outcome of one DistRun on every rank of a world.
type distWorld struct {
	pots     [][]float64
	reps     []ExecReport
	errs     []error
	closedAt []time.Time // when a victim's Close began (zero for survivors)
	returned []time.Time // when each rank's DistRun returned
}

// runDistWorld runs DistRun concurrently on every rank — each with its own
// identically-built plan, as separate processes would — with rank 0
// supplying the charges. kills maps a victim rank to the fraction of its
// owned nodes after which its cluster is closed: to its peers that is
// indistinguishable from a SIGKILL (heartbeats stop, every socket is
// severed). Close runs on its own goroutine because OnProgress is called
// inside a node fire, which holds the executor's read lock, while Close
// joins cluster goroutines that may be applying a death verdict under the
// write lock; the kill returns once Close has begun, after which the rank
// fires no further node. runDistWorld returns once every rank and every
// Close is done.
func runDistWorld(t *testing.T, cls []*amt.Cluster, plans []*Plan, q []float64, kills map[int]float64, opts func(r int) DistOptions) distWorld {
	t.Helper()
	world := len(cls)
	res := distWorld{
		pots:     make([][]float64, world),
		reps:     make([]ExecReport, world),
		errs:     make([]error, world),
		closedAt: make([]time.Time, world),
		returned: make([]time.Time, world),
	}
	var closers sync.WaitGroup
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			charges := q
			if r != 0 {
				charges = nil
			}
			o := opts(r)
			if frac, ok := kills[r]; ok {
				var once sync.Once
				o.OnProgress = func(fired, owned int) {
					if owned > 0 && float64(fired) >= frac*float64(owned) {
						once.Do(func() {
							res.closedAt[r] = time.Now()
							closers.Add(1)
							go func() {
								defer closers.Done()
								cls[r].Close()
							}()
							<-cls[r].Closed()
						})
					}
				}
			}
			res.pots[r], res.reps[r], res.errs[r] = DistRun(plans[r], cls[r], charges, o)
			res.returned[r] = time.Now()
		}(r)
	}
	wg.Wait()
	closers.Wait()
	return res
}

// distCache shares plans and sequential references across the DistRun
// tests: a plan is reusable run over run (the standing-cluster shape), and
// building one — lazily built operator tables included — dominates a
// DistRun under -race.
var distCache = struct {
	sync.Mutex
	plans map[[2]int][]*Plan
	refs  map[int][2][]float64
}{plans: map[[2]int][]*Plan{}, refs: map[int][2][]float64{}}

// distPlans returns one plan per rank (SPMD: every process builds its own).
func distPlans(t *testing.T, world, n int) []*Plan {
	t.Helper()
	distCache.Lock()
	defer distCache.Unlock()
	key := [2]int{world, n}
	if plans, ok := distCache.plans[key]; ok {
		return plans
	}
	plans := make([]*Plan, world)
	for r := range plans {
		plans[r], _ = distScenario(t, n)
	}
	distCache.plans[key] = plans
	return plans
}

// distReference returns the scenario's charges and sequential potentials.
func distReference(t *testing.T, n int) (q, want []float64) {
	t.Helper()
	distCache.Lock()
	defer distCache.Unlock()
	if ref, ok := distCache.refs[n]; ok {
		return ref[0], ref[1]
	}
	plan, q := distScenario(t, n)
	want, err := plan.EvaluateSequential(q)
	if err != nil {
		t.Fatal(err)
	}
	distCache.refs[n] = [2][]float64{q, want}
	return q, want
}

// distPrompt bounds how long a rank may take to fail once its cluster is
// closed: it still finishes the tasks in flight, and under the race
// detector one of those can be a cold plan's lazily built operator tables.
func distPrompt() time.Duration {
	if raceEnabled {
		return 10 * time.Second
	}
	return time.Second
}

// checkKills asserts that every victim failed its run promptly after its
// Close — not at its Timeout — and that every survivor succeeded.
func (w distWorld) checkKills(t *testing.T, kills map[int]float64) {
	t.Helper()
	for r, err := range w.errs {
		if _, victim := kills[r]; !victim {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
			continue
		}
		if w.closedAt[r].IsZero() {
			t.Fatalf("victim rank %d never reached its kill point", r)
		}
		if err == nil {
			t.Errorf("victim rank %d finished cleanly; expected an error after Close", r)
		}
		if d := w.returned[r].Sub(w.closedAt[r]); d > distPrompt() {
			t.Errorf("victim rank %d returned %s after its Close (%v)", r, d, err)
		}
	}
}

// Four ranks over a real unix-socket mesh must reproduce the sequential
// potentials exactly (modulo summation-order rounding): the 1e-12 gate the
// multi-process smoke run enforces.
func TestDistRunMatchesSequential(t *testing.T) {
	const world, n = 4, 1500
	q, want := distReference(t, n)
	cls := distClusters(t, world, distHeartbeat)
	res := runDistWorld(t, cls, distPlans(t, world, n), q, nil, func(r int) DistOptions {
		return DistOptions{Seed: int64(100 + r), Timeout: 60 * time.Second}
	})
	res.checkKills(t, nil)
	assertSame(t, res.pots[0], want, 1e-12)
	for r := 1; r < world; r++ {
		if res.pots[r] != nil {
			t.Errorf("rank %d returned potentials; only rank 0 gathers", r)
		}
	}
	rep := res.reps[0]
	if rep.Localities != world {
		t.Errorf("Localities = %d, want %d", rep.Localities, world)
	}
	if rep.Runtime.ParcelsSent == 0 {
		t.Error("rank 0 sent no wire parcels")
	}
	if tr := rep.Runtime.Transport; tr.WireMessages == 0 || tr.BytesOut == 0 {
		t.Errorf("transport counters empty: %+v", tr)
	}
	if rep.Recovery.RanksKilled != 0 {
		t.Errorf("fault-free run reported %d killed ranks", rep.Recovery.RanksKilled)
	}
}

// Killing a worker rank mid-run must still produce 1e-12 potentials at rank
// 0, with the recovery counters reporting the failover.
func TestDistRunRecoversFromRankDeath(t *testing.T) {
	const world, n = 4, 1500
	q, want := distReference(t, n)
	kills := map[int]float64{world - 1: 0.5}
	cls := distClusters(t, world, distHeartbeat)
	res := runDistWorld(t, cls, distPlans(t, world, n), q, kills, func(r int) DistOptions {
		return DistOptions{Seed: int64(200 + r), Timeout: 90 * time.Second}
	})
	res.checkKills(t, kills)
	assertSame(t, res.pots[0], want, 1e-12)
	rec := res.reps[0].Recovery
	t.Logf("recovery: %s", rec)
	if rec.RanksKilled != 1 {
		t.Errorf("RanksKilled = %d, want 1", rec.RanksKilled)
	}
	if rec.NodesRebuilt == 0 {
		t.Error("no nodes rebuilt despite a rank death")
	}
	if rec.RecoveryWall <= 0 {
		t.Error("recovery wall time not recorded")
	}
}

// TestCrashRecoveryMatchesSequential sweeps the kill point at unit scale:
// one of four ranks dies at 25% or 75% of its local progress (50% is
// TestDistRunRecoversFromRankDeath) and the recovered potentials must match
// the sequential evaluation to 1e-12.
func TestCrashRecoveryMatchesSequential(t *testing.T) {
	const world, n = 4, 1500
	q, want := distReference(t, n)
	plans := distPlans(t, world, n)
	for _, at := range []float64{0.25, 0.75} {
		kills := map[int]float64{1: at}
		cls := distClusters(t, world, distHeartbeat)
		res := runDistWorld(t, cls, plans, q, kills, func(r int) DistOptions {
			return DistOptions{Seed: int64(600 + r), Timeout: 90 * time.Second}
		})
		res.checkKills(t, kills)
		assertSame(t, res.pots[0], want, 1e-12)
		rec := res.reps[0].Recovery
		t.Logf("kill at %.0f%%: %s", at*100, rec)
		if rec.RanksKilled != 1 || rec.RecoveryWall <= 0 {
			t.Errorf("kill at %.0f%%: killed=%d wall=%s, want 1 and > 0", at*100, rec.RanksKilled, rec.RecoveryWall)
		}
	}
}

// TestCrashRecoveryOverFaultyWire combines a lossy wire with a rank death:
// every peer's outbound queue holds only 4 frames, so parcel bursts
// overflow and must be retransmitted while the failover runs — reliability
// and recovery must compose.
func TestCrashRecoveryOverFaultyWire(t *testing.T) {
	const world, n = 4, 1500
	q, want := distReference(t, n)
	kills := map[int]float64{2: 0.5}
	cls := distClusters(t, world, func(c *amt.ClusterConfig) {
		distHeartbeat(c)
		c.MaxQueue = 4
	})
	res := runDistWorld(t, cls, distPlans(t, world, n), q, kills, func(r int) DistOptions {
		return DistOptions{Seed: int64(700 + r), Timeout: 90 * time.Second}
	})
	res.checkKills(t, kills)
	assertSame(t, res.pots[0], want, 1e-12)
	rep := res.reps[0]
	t.Logf("recovery: %s; retried=%d", rep.Recovery, rep.Runtime.Transport.Retried)
	if rep.Recovery.RanksKilled != 1 {
		t.Errorf("RanksKilled = %d, want 1", rep.Recovery.RanksKilled)
	}
	if rep.Runtime.Transport.Retried == 0 {
		t.Error("no retries over a 4-frame send queue")
	}
}

// A rank whose own cluster is closed mid-run cannot reach its peers any
// more; its DistRun must fail at once instead of waiting out the Timeout.
func TestDistRunClosedClusterFailsPromptly(t *testing.T) {
	const world, n = 2, 1500
	q, _ := distReference(t, n)
	kills := map[int]float64{1: 0.5}
	cls := distClusters(t, world, distHeartbeat)
	res := runDistWorld(t, cls, distPlans(t, world, n), q, kills, func(r int) DistOptions {
		return DistOptions{Seed: int64(250 + r), Timeout: 60 * time.Second}
	})
	res.checkKills(t, kills)
	if err := res.errs[1]; err == nil || !strings.Contains(err.Error(), "cluster closed") {
		t.Errorf("victim error does not name the closed cluster: %v", err)
	}
}

// TestCrashRecoveryDoubleCrash: two ranks dying at different progress
// points must still recover exactly — including re-deriving state a
// first-death survivor took over and then lost to the second death.
func TestCrashRecoveryDoubleCrash(t *testing.T) {
	const world, n = 4, 1500
	q, want := distReference(t, n)
	kills := map[int]float64{1: 0.25, 2: 0.60}
	cls := distClusters(t, world, distHeartbeat)
	res := runDistWorld(t, cls, distPlans(t, world, n), q, kills, func(r int) DistOptions {
		return DistOptions{Seed: int64(300 + r), Timeout: 90 * time.Second}
	})
	res.checkKills(t, kills)
	assertSame(t, res.pots[0], want, 1e-12)
	rec := res.reps[0].Recovery
	t.Logf("recovery: %s", rec)
	if rec.RanksKilled != 2 {
		t.Errorf("RanksKilled = %d, want 2", rec.RanksKilled)
	}
}

// TestCrashRecoveryWithGradient: the rebuilt T nodes must re-zero their
// gradient slices too, or the force output double-counts. Gradients are
// gated at 1e-9 like TestGradientParallelMatchesSequential — signed
// component sums cancel, so parallel reassociation alone already exceeds
// 1e-12 on a fault-free run (potentials, mostly same-signed, stay at 1e-12).
func TestCrashRecoveryWithGradient(t *testing.T) {
	const world, n = 4, 1500
	refPlan, q := distScenario(t, n)
	wantPot, wantGrad, err := refPlan.EvaluateSequentialGrad(q)
	if err != nil {
		t.Fatal(err)
	}
	kills := map[int]float64{2: 0.5}
	cls := distClusters(t, world, distHeartbeat)
	res := runDistWorld(t, cls, distPlans(t, world, n), q, kills, func(r int) DistOptions {
		return DistOptions{Seed: int64(400 + r), Timeout: 90 * time.Second, Gradient: true}
	})
	res.checkKills(t, kills)
	assertSame(t, res.pots[0], wantPot, 1e-12)
	rep := res.reps[0]
	if rep.Recovery.RanksKilled != 1 {
		t.Errorf("RanksKilled = %d, want 1", rep.Recovery.RanksKilled)
	}
	if len(rep.Gradients) != len(wantGrad) {
		t.Fatalf("%d gradients, want %d", len(rep.Gradients), len(wantGrad))
	}
	var den float64
	for _, g := range wantGrad {
		for _, c := range []float64{g.X, g.Y, g.Z} {
			den = math.Max(den, math.Abs(c))
		}
	}
	worst := 0.0
	for i := range wantGrad {
		d := math.Abs(rep.Gradients[i].X-wantGrad[i].X) +
			math.Abs(rep.Gradients[i].Y-wantGrad[i].Y) +
			math.Abs(rep.Gradients[i].Z-wantGrad[i].Z)
		if d/den > 1e-9 {
			t.Fatalf("gradient %d differs: %v vs %v", i, rep.Gradients[i], wantGrad[i])
		}
		worst = math.Max(worst, d/den)
	}
	t.Logf("recovery: %s; gradient max relative diff %.1e", rep.Recovery, worst)
}

// TestAllRanksDeadFails: when every rank's cluster dies mid-run, no rank
// may hang or fabricate results — each fails its run promptly.
func TestAllRanksDeadFails(t *testing.T) {
	const world, n = 3, 1500
	q, _ := distReference(t, n)
	cls := distClusters(t, world, distHeartbeat)
	var once sync.Once
	var closedAt time.Time
	var closers sync.WaitGroup
	res := runDistWorld(t, cls, distPlans(t, world, n), q, nil, func(r int) DistOptions {
		o := DistOptions{Seed: int64(500 + r), Timeout: 60 * time.Second}
		if r == 0 {
			// Rank 0 pulls the plug on the whole world at 20% of its work
			// (asynchronously, for the reason runDistWorld gives).
			o.OnProgress = func(fired, owned int) {
				if fired*5 < owned {
					return
				}
				once.Do(func() {
					closedAt = time.Now()
					for _, cl := range cls {
						closers.Add(1)
						go func(cl *amt.Cluster) {
							defer closers.Done()
							cl.Close()
						}(cl)
					}
				})
			}
		}
		return o
	})
	closers.Wait()
	if closedAt.IsZero() {
		t.Fatal("rank 0 never reached its kill point")
	}
	for r, err := range res.errs {
		if err == nil {
			t.Errorf("rank %d reported success with every rank dead", r)
		}
		if d := res.returned[r].Sub(closedAt); d > distPrompt() {
			t.Errorf("rank %d returned %s after the world was closed (%v)", r, d, err)
		}
	}
	if res.pots[0] != nil {
		t.Error("rank 0 returned potentials with every rank dead")
	}
}
