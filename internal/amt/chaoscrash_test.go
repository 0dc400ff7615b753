// Crash-recovery chaos harness: the rank-death counterpart of
// TestChaosProfiles, run on the multi-process execution path (core.DistRun)
// with every rank an in-process cluster joined over unix sockets. Full
// multipole evaluations (cube/sphere x Laplace/Yukawa) lose one of four
// ranks at 25/50/75% of its local progress — its cluster is closed, which
// to the survivors is indistinguishable from a SIGKILL — plus a lossy-wire
// profile (per-peer send queues of 4 frames, so bursts overflow and are
// retransmitted) layered under the 50% kill. Every case is gated at 1e-12
// relative against the fault-free potentials. Run the full matrix with
// `make chaos-crash`; `go test -short` (the ci target) and -race keep the
// 50% kill and the lossy profile.
package amt_test

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/amt"
	"repro/internal/core"
	"repro/internal/points"
)

// chaosCrashVictim is the rank whose cluster dies mid-run.
const chaosCrashVictim = 1

type chaosCrashCase struct {
	name  string
	at    float64
	lossy bool // bound every peer's outbound queue so the wire drops bursts
}

func chaosCrashCases(short bool) []chaosCrashCase {
	if short {
		return []chaosCrashCase{
			{name: "kill50", at: 0.50},
			{name: "kill50+wire", at: 0.50, lossy: true},
		}
	}
	return []chaosCrashCase{
		{name: "kill25", at: 0.25},
		{name: "kill50", at: 0.50},
		{name: "kill75", at: 0.75},
		{name: "kill50+wire", at: 0.50, lossy: true},
	}
}

// chaosCrashClusters joins chaosLocalities in-process clusters over unix
// sockets: rank 0 first (its listener must exist before workers dial), then
// the workers concurrently (NewCluster blocks until WELCOME). Heartbeats
// allow a full second of silence so a busy rank on a loaded machine is
// never falsely declared dead.
func chaosCrashClusters(t *testing.T, lossy bool) []*amt.Cluster {
	t.Helper()
	addr := filepath.Join(t.TempDir(), "rank0.sock")
	cfg := func(rank int) amt.ClusterConfig {
		c := amt.ClusterConfig{
			Rank: rank, World: chaosLocalities, Network: "unix", Addr: addr,
			Stamp:     "chaos-crash-v1",
			Heartbeat: amt.FailureDetectorConfig{Interval: 50 * time.Millisecond, MissedBeats: 20},
		}
		if lossy {
			c.MaxQueue = 4
		}
		return c
	}
	cls := make([]*amt.Cluster, chaosLocalities)
	errs := make([]error, chaosLocalities)
	cls[0], errs[0] = amt.NewCluster(cfg(0))
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	var wg sync.WaitGroup
	for r := 1; r < chaosLocalities; r++ {
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
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", r, err)
		}
	}
	return cls
}

// TestChaosCrash is the crash-recovery chaos entry point.
func TestChaosCrash(t *testing.T) {
	n := 1500
	if chaosRace {
		n = 800
	}
	cases := chaosCrashCases(testing.Short() || chaosRace)

	for _, wl := range chaosWorkloads() {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			sp := points.Generate(wl.dist, n, 1)
			tp := points.Generate(wl.dist, n, 2)
			q := points.Charges(n, 3)
			// One plan per rank, as separate processes would build them.
			plans := make([]*core.Plan, chaosLocalities)
			for r := range plans {
				var err error
				if plans[r], err = core.NewPlan(sp, tp, wl.kern(), core.Options{Threshold: 40}); err != nil {
					t.Fatal(err)
				}
			}
			want, _, err := plans[0].Evaluate(q, core.ExecOptions{
				Localities: chaosLocalities, Workers: chaosWorkers, Seed: 99,
			})
			if err != nil {
				t.Fatalf("fault-free reference run: %v", err)
			}

			for _, tc := range cases {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					cls := chaosCrashClusters(t, tc.lossy)
					pots := make([][]float64, chaosLocalities)
					reps := make([]core.ExecReport, chaosLocalities)
					errs := make([]error, chaosLocalities)
					var closedAt, victimDone time.Time
					var closer, wg sync.WaitGroup
					var once sync.Once
					for r := 0; r < chaosLocalities; r++ {
						wg.Add(1)
						go func(r int) {
							defer wg.Done()
							charges := q
							if r != 0 {
								charges = nil
							}
							opts := core.DistOptions{
								Workers: chaosWorkers, Seed: int64(99 + r), Timeout: 90 * time.Second,
							}
							if r == chaosCrashVictim {
								// Close on its own goroutine: OnProgress runs inside
								// a node fire (executor read lock held), and Close
								// joins cluster goroutines that may be applying a
								// verdict under the write lock. Once Close has begun
								// the victim fires no further node.
								opts.OnProgress = func(fired, owned int) {
									if owned > 0 && float64(fired) >= tc.at*float64(owned) {
										once.Do(func() {
											closedAt = time.Now()
											closer.Add(1)
											go func() {
												defer closer.Done()
												cls[r].Close()
											}()
											<-cls[r].Closed()
										})
									}
								}
							}
							pots[r], reps[r], errs[r] = core.DistRun(plans[r], cls[r], charges, opts)
							if r == chaosCrashVictim {
								victimDone = time.Now()
							}
						}(r)
					}
					wg.Wait()
					closer.Wait()

					for r, err := range errs {
						if r != chaosCrashVictim && err != nil {
							t.Fatalf("%s under %s: rank %d: %v", wl.name, tc.name, r, err)
						}
					}
					if closedAt.IsZero() || errs[chaosCrashVictim] == nil {
						t.Fatalf("victim rank %d was not killed (err=%v)", chaosCrashVictim, errs[chaosCrashVictim])
					}
					// The victim must fail promptly, never at its Timeout. It
					// still finishes the tasks in flight when its cluster
					// closes; under the race detector one of those can be the
					// first run's lazily built operator tables, which takes
					// seconds.
					prompt := time.Second
					if chaosRace {
						prompt = 10 * time.Second
					}
					if d := victimDone.Sub(closedAt); d > prompt {
						t.Errorf("victim returned %s after its Close, not promptly", d)
					}
					assertChaosClose(t, pots[0], want)

					rep := reps[0]
					r := rep.Recovery
					t.Logf("%s/%s: %s retried=%d", wl.name, tc.name, r, rep.Runtime.Transport.Retried)
					if r.RanksKilled != 1 {
						t.Errorf("killed=%d, want 1", r.RanksKilled)
					}
					if r.RecoveryWall <= 0 {
						t.Error("recovery wall time not recorded")
					}
					if tc.lossy && rep.Runtime.Transport.Retried == 0 {
						t.Error("lossy wire observed no retry")
					}
				})
			}
		})
	}
}
