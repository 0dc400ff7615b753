package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/geom"
	"repro/internal/points"
	"repro/internal/serve"
)

// serveConns is both the client's connection limit and the server's
// evaluation concurrency: the benchmark is sized for two cores, and each
// request evaluates on one worker.
const serveConns = 2

// failedLatency is the latency charged to a request that failed or was
// refused: the server's default deadline, so it misses any latency limit.
const failedLatency = 30 * time.Second

// sessionSpec sizes one serve session.
type sessionSpec struct {
	mix      mixSpec
	openN    int     // open-loop requests
	openRate float64 // open-loop arrival rate, requests per second
	closed   bool    // run the closed-loop capacity phase
}

// serveMixed is the serve-mixed workload: one request in 12 builds a
// never-seen geometry (a full plan plus its plane-wave tables), the rest hit
// four primed geometries with Zipf(1.2) popularity. The open loop is just
// long enough for its p95 to have ten samples beyond it, at a rate of about
// 60% of the ~5/s closed-loop capacity measured on two cores.
var serveMixed = sessionSpec{
	mix:      mixSpec{coldFrac: 1.0 / 12, warm: 4, zipfS: 1.2},
	openN:    minSamplesFor(0.95),
	openRate: 3,
	closed:   true,
}

// serveProbe is the small session the traced runs of library workloads use
// to fill the serve-layer metrics, at the serve-mixed request shape.
var serveProbe = sessionSpec{
	mix:      mixSpec{coldFrac: 1.0 / 8, warm: 2, zipfS: 1.2},
	openN:    16,
	openRate: 3,
}

// reply is one request's outcome as the client saw it.
type reply struct {
	spec   reqSpec
	status int
	err    error
	resp   serve.Response
	client time.Duration // send to reply, as the client measured it
	phase  string        // "prime", "open" or "closed"
}

func (rp *reply) ok() bool { return rp.err == nil && rp.status == http.StatusOK }

// session is one in-process server behind a loopback listener and the
// client that loads it.
type session struct {
	s      shape
	url    string
	client *http.Client
	hs     *http.Server
	served chan error
}

func startSession(s shape) (*session, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := serve.New(serve.Config{MaxConcurrent: serveConns, CacheSize: 1024, DefaultDeadline: failedLatency})
	ss := &session{
		s:   s,
		url: "http://" + ln.Addr().String() + "/evaluate",
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
		}},
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
	}
	go func() { ss.served <- ss.hs.Serve(ln) }()
	return ss, nil
}

// close shuts the server down and waits for it to stop serving.
func (ss *session) close() error {
	ss.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ss.hs.Shutdown(ctx)
	if serr := <-ss.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// send posts one request and decodes the reply.
func (ss *session) send(spec reqSpec, phase string) *reply {
	rp := &reply{spec: spec, phase: phase}
	body, _ := json.Marshal(serve.Request{
		Distribution: "cube", N: ss.s.n, Seed: spec.geomSeed, Digits: ss.s.digits,
		Workers: ss.s.workers, ChargeSeed: spec.chargeSeed,
	})
	start := time.Now()
	res, err := ss.client.Post(ss.url, "application/json", bytes.NewReader(body))
	if err != nil {
		rp.err = err
		rp.client = time.Since(start)
		return rp
	}
	defer res.Body.Close()
	rp.status = res.StatusCode
	if res.StatusCode == http.StatusOK {
		rp.err = json.NewDecoder(res.Body).Decode(&rp.resp)
	} else {
		_, _ = io.Copy(io.Discard, res.Body)
	}
	rp.client = time.Since(start)
	return rp
}

// sessionResult is everything a session measured.
type sessionResult struct {
	primes   []*reply
	open     []*reply
	openTime []timing
	closed   []*reply
	closedT  time.Duration
	heap     float64 // live heap the primed server holds, in bytes
}

// runSession primes the warm geometries two at a time, then runs the open
// loop and, if asked, the closed loop.
func runSession(r *run, s shape, spec sessionSpec) (*sessionResult, error) {
	base := liveHeap()
	ss, err := startSession(s)
	if err != nil {
		return nil, err
	}
	res := &sessionResult{primes: make([]*reply, spec.mix.warm)}
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < spec.mix.warm; k += serveConns {
				res.primes[k] = ss.send(reqSpec{geomSeed: warmGeomBase + 2*int64(k),
					chargeSeed: chargeSeed(r.seed, 1<<19+k)}, "prime")
			}
		}(c)
	}
	wg.Wait()
	res.heap = liveHeap() - base

	sched := openSchedule(r.seed, spec.openN, spec.openRate, spec.mix)
	due := make([]time.Duration, len(sched))
	for i, a := range sched {
		due[i] = a.due
	}
	res.open = make([]*reply, len(sched))
	res.openTime = runOpenLoop(due, serveConns, func(i int) {
		res.open[i] = ss.send(sched[i].spec, "open")
	})

	if spec.closed {
		m := newMixer(r.seed, 2, spec.mix)
		// More specs than two one-worker clients can send in the window.
		specs := make([]reqSpec, 100*int(r.seconds.Seconds()+1))
		for i := range specs {
			specs[i] = m.next(1 << 18)
		}
		replies := make([]*reply, len(specs))
		n, el := runClosedLoop(serveConns, r.seconds, func(i int) {
			replies[i] = ss.send(specs[i], "closed")
		})
		res.closed = replies[:n]
		res.closedT = el
	}
	return res, ss.close()
}

func runServe(r *run, w *workload) error {
	res, err := runSession(r, w.shape, serveMixed)
	if err != nil {
		return err
	}
	directs := checkReplies(r, w.shape, res)
	if r.trace {
		reportServeLayer(r, res)
		probeLayers(r, newProblem(w.shape))
		return nil
	}

	var setups, evals, lat []float64
	for _, rp := range res.primes {
		setups = append(setups, rp.client.Seconds())
	}
	for i, rp := range res.open {
		l := res.openTime[i].latency()
		if !rp.ok() {
			l = failedLatency
		} else if !rp.spec.cold {
			evals = append(evals, rp.resp.Report.Evaluate.Seconds())
		}
		lat = append(lat, float64(l)/1e6)
	}
	if !hasTail(len(lat), 0.95) {
		r.wrong("%d open-loop requests leave fewer than %d beyond the p95", len(lat), minTail)
	}
	if p, ok := highestTailPercentile(len(lat)); ok {
		fmt.Printf("# open loop: %d requests; the highest percentile with %d beyond it is p%.1f\n", len(lat), minTail, 100*p)
	}
	var done int
	for _, rp := range res.closed {
		if rp.ok() {
			done++
		}
	}
	solve := median(evals)
	r.set("setup_s", median(setups), "s")
	r.set("solve_s", solve, "s")
	r.set("speedup_vs_direct", median(directs)/solve, "x")
	r.set("heap_mb", res.heap/1e6, "MB")
	r.set("latency_p50_ms", median(lat), "ms")
	r.set("latency_p95_ms", nearestRank(lat, 0.95), "ms")
	r.set("capacity_rps", float64(done)/res.closedT.Seconds(), "1/s")
	return nil
}

// probeServe fills the serve-layer metrics in the traced run of a library
// workload from a short session at the serve-mixed request shape.
func probeServe(r *run) error {
	res, err := runSession(r, serveShape, serveProbe)
	if err != nil {
		return err
	}
	checkReplies(r, serveShape, res)
	reportServeLayer(r, res)
	return nil
}

// reportServeLayer sets the serve- and load-layer metrics from the replies'
// own reports.
func reportServeLayer(r *run, res *sessionResult) {
	var queue, build, eval, httpMS, lag []float64
	var ok, hits, shed, deadline, errs int
	count := func(rp *reply) {
		switch {
		case rp.ok():
			ok++
			if rp.resp.Report.CacheHit {
				hits++
			}
		case rp.status == http.StatusTooManyRequests:
			shed++
		case rp.status == http.StatusServiceUnavailable:
			deadline++
		default:
			errs++
		}
	}
	for i, rp := range res.open {
		count(rp)
		lag = append(lag, float64(res.openTime[i].lag())/1e6)
		if !rp.ok() {
			continue
		}
		rep := rp.resp.Report
		queue = append(queue, float64(rep.QueueWait)/1e6)
		httpMS = append(httpMS, float64(rp.client-rep.Total)/1e6)
		if rp.spec.cold {
			build = append(build, float64(rep.PlanBuild)/1e6)
		} else {
			eval = append(eval, float64(rep.Evaluate)/1e6)
		}
	}
	for _, rp := range res.closed {
		count(rp)
	}
	r.set("serve.queue_wait_ms", median(queue), "ms")
	r.set("serve.plan_build_ms", median(build), "ms")
	r.set("serve.evaluate_ms", median(eval), "ms")
	r.set("serve.http_ms", median(httpMS), "ms")
	frac := 0.0
	if ok > 0 {
		frac = float64(hits) / float64(ok)
	}
	r.set("serve.cache_hit_frac", frac, "ratio")
	r.set("serve.shed", float64(shed), "count")
	r.set("serve.deadline", float64(deadline), "count")
	r.set("serve.errors", float64(errs), "count")
	r.set("load.send_lag_ms", median(lag), "ms")
}

// sampleTargets is how many targets the accuracy check of a non-first
// reply per geometry samples.
const sampleTargets = 64

// checkReplies counts every request and checks every delivered result
// against direct summation: the first reply of each geometry over all
// targets, the others over a fixed sample of targets. It also checks that
// exactly the scheduled cold requests missed the plan cache. It returns the
// times of the full direct sums (one worker, like the requests).
func checkReplies(r *run, s shape, res *sessionResult) []float64 {
	kd := s.newKernel()
	tol := s.tolerance()
	type geometry struct {
		src, tgt, sample []geom.Point
		idx              []int
		checked          bool
	}
	geoms := map[int64]*geometry{}
	var directs []float64
	var all []*reply
	all = append(all, res.primes...)
	all = append(all, res.open...)
	all = append(all, res.closed...)
	var scheduledCold, missed int
	for _, rp := range all {
		if !rp.ok() {
			r.attempt(false)
			r.problems = append(r.problems, fmt.Sprintf("%s request failed: status %d, %v", rp.phase, rp.status, rp.err))
			continue
		}
		if rp.phase != "prime" && rp.spec.cold {
			scheduledCold++
		}
		if rp.phase != "prime" && !rp.resp.Report.CacheHit {
			missed++
		}
		if rp.phase == "prime" && rp.resp.Report.CacheHit {
			r.wrong("priming request for geometry %d hit the plan cache", rp.spec.geomSeed)
		}
		g := geoms[rp.spec.geomSeed]
		if g == nil {
			g = &geometry{src: points.Generate(points.Cube, s.n, rp.spec.geomSeed),
				tgt: points.Generate(points.Cube, s.n, rp.spec.geomSeed+1)}
			for i := 0; i < sampleTargets; i++ {
				j := i * s.n / sampleTargets
				g.idx = append(g.idx, j)
				g.sample = append(g.sample, g.tgt[j])
			}
			geoms[rp.spec.geomSeed] = g
		}
		q := points.Charges(s.n, rp.spec.chargeSeed)
		pot := rp.resp.Potentials
		if len(pot) != s.n {
			r.attempt(false)
			r.wrong("reply carries %d potentials for %d targets", len(pot), s.n)
			continue
		}
		var e float64
		if !g.checked {
			start := time.Now()
			ref := baseline.Direct(kd, g.src, q, g.tgt, s.workers)
			directs = append(directs, time.Since(start).Seconds())
			e = relL2(pot, ref)
			g.checked = true
		} else {
			ref := make([]float64, sampleTargets)
			kd.S2T(g.src, q, g.sample, ref)
			got := make([]float64, sampleTargets)
			for i, j := range g.idx {
				got[i] = pot[j]
			}
			e = relL2(got, ref)
		}
		ok := e <= tol
		r.attempt(ok)
		if !ok {
			r.wrong("%s reply for geometry %d: relative L2 error %.3g exceeds the %d-digit contract",
				rp.phase, rp.spec.geomSeed, e, s.digits)
		}
	}
	if missed != scheduledCold {
		r.wrong("%d plan-cache misses for %d scheduled cold requests", missed, scheduledCold)
	}
	if len(directs) == 0 {
		r.wrong("no reply could be checked against direct summation")
	}
	return directs
}
