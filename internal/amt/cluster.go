package amt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Rank bootstrap and membership for multi-process localities (DESIGN.md,
// "Distribution"). The control plane is a star: rank 0 listens at a
// well-known address, every worker rank joins with a handshake (rank id,
// world size, build/version stamp, its own data-plane listen address) and
// keeps the join connection open as its control channel. Rank 0 validates
// joins — wrong stamp, out-of-range or duplicate rank, and joins after the
// run has started are rejected with a reason — and once all ranks are
// present broadcasts START carrying the full peer address list. From then
// on the data plane is a mesh of SocketTransport connections (socket.go),
// while heartbeats keep flowing worker→rank 0 over the control star: rank 0
// is the single membership authority, declaring a silent rank dead after
// the missed-beat threshold (FailureDetectorConfig) and broadcasting the
// verdict, with an epoch number, to every survivor. A worker that loses its
// control connection treats the coordinator as dead and aborts.
//
// A standing cluster (the serve worker pool) additionally supports
// generation-based re-admission: a respawned worker presents a REJOIN
// handshake, which rank 0 admits between runs — allocating a fresh wire
// generation, resurrecting the rank's transport links and broadcasting the
// updated membership to every survivor. Every data frame is stamped with
// the sender's adopted generation (socket.go) and fenced at the receiver
// (serveData), so a corpse's stragglers from an earlier incarnation can
// never leak into a later run. Jobs are application payloads rank 0
// broadcasts over the control star (StartJob); while a job is running,
// re-admission is deferred so membership never shifts under a placement.

// Cluster-internal control frame kinds. Application payload kinds must stay
// below ctlBase.
const (
	ctlBase     uint16 = 0xff00
	ctlHello    uint16 = 0xff01 // worker → rank0: join request
	ctlWelcome  uint16 = 0xff02 // rank0 → worker: join accepted
	ctlReject   uint16 = 0xff03 // rank0 → worker: join refused (payload: reason)
	ctlStart    uint16 = 0xff04 // rank0 → workers: peer address list, run begins
	ctlBeat     uint16 = 0xff05 // worker → rank0: heartbeat
	ctlDead     uint16 = 0xff06 // rank0 → workers: death verdict (payload: rank, epoch)
	ctlShutdown uint16 = 0xff07 // rank0 → workers: run complete, drain and exit
	ctlAttach   uint16 = 0xff08 // data-plane connection preamble
	ctlRejoin   uint16 = 0xff09 // worker → rank0: re-admission request after a respawn
	ctlGen      uint16 = 0xff0a // rank0 → workers: membership update (generation, epoch, addrs, dead ranks)
	ctlJob      uint16 = 0xff0b // rank0 → workers: application job broadcast (frame epoch = wire generation)
	ctlExit     uint16 = 0xff0c // rank0 → workers: pool teardown, exit the process
)

// retryPrefix marks a REJECT reason as transient: the joiner should back
// off and retry the handshake instead of giving up.
const retryPrefix = "retry: "

// FailureDetectorConfig tunes the cluster's heartbeat failure detector.
//
// Every worker rank sends rank 0 a heartbeat each Interval over the control
// star; rank 0 declares a rank dead once its last heartbeat is older than
// Interval × MissedBeats. This is the classic heartbeat detector (the
// fixed-threshold special case of a phi-accrual detector): it is complete (a
// crashed rank stops beating and is eventually declared) but only
// eventually accurate (a tight threshold misjudges a slow rank). False
// positives are made harmless by fencing: a verdict severs the suspected
// rank's wire endpoints on every survivor before anyone reassigns its work,
// and a rank that learns it was declared dead fails its run.
type FailureDetectorConfig struct {
	// Interval between heartbeats.
	Interval time.Duration
	// MissedBeats before a silent rank is declared dead.
	MissedBeats int
}

// ClusterConfig configures one rank's view of a multi-process cluster.
type ClusterConfig struct {
	// Rank is this process's locality id in [0, World); rank 0 coordinates.
	Rank, World int
	// Network is "tcp" or "unix".
	Network string
	// Addr is rank 0's well-known address: the bind address on rank 0, the
	// join target on workers.
	Addr string
	// Stamp is the build/version + scenario stamp; every rank must present
	// an identical stamp or the join is rejected.
	Stamp string
	// Heartbeat tunes the membership detector (zero value = 25ms interval,
	// 8 missed beats).
	Heartbeat FailureDetectorConfig
	// DialBase/DialMax bound the data-plane dial retry backoff (defaults
	// 5ms and 500ms).
	DialBase, DialMax time.Duration
	// MaxQueue bounds each peer's outbound frame queue; overflow is dropped
	// and surfaces as wire loss (default 8192).
	MaxQueue int
	// JoinTimeout bounds the bootstrap: workers dialing rank 0 and rank 0
	// awaiting the full roster (default 30s).
	JoinTimeout time.Duration
	// CtlWriteTimeout bounds each control-plane frame write. Without it, a
	// wedged peer socket (full buffer, half-dead host) blocks
	// controlConn.send forever while the sender holds wmu — and bcastMu
	// above it — freezing every broadcast on rank 0, including the death
	// verdict that would have severed the wedged peer (default 5s).
	CtlWriteTimeout time.Duration
	// Rejoin makes a worker re-enter an already-started cluster (a
	// respawned rank): the handshake is a REJOIN, and the WELCOME carries
	// the live membership (generation, epoch, peer addresses, dead ranks)
	// instead of waiting for a START broadcast.
	Rejoin bool
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Heartbeat.Interval <= 0 {
		c.Heartbeat.Interval = 25 * time.Millisecond
	}
	if c.Heartbeat.MissedBeats <= 0 {
		c.Heartbeat.MissedBeats = 8
	}
	if c.DialBase <= 0 {
		c.DialBase = 5 * time.Millisecond
	}
	if c.DialMax <= 0 {
		c.DialMax = 500 * time.Millisecond
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 8192
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 30 * time.Second
	}
	if c.CtlWriteTimeout <= 0 {
		c.CtlWriteTimeout = 5 * time.Second
	}
	return c
}

// controlConn is one end of a control-star connection with a write lock (the
// monitor, Start and Shutdown broadcast concurrently).
type controlConn struct {
	conn net.Conn
	wmu  sync.Mutex
	// writeTimeout bounds each Write (ClusterConfig.CtlWriteTimeout): a
	// wedged peer must error out of the wmu critical section, not park in
	// it with every broadcaster queued behind.
	writeTimeout time.Duration
}

func (cc *controlConn) send(f *Frame) error {
	buf := AppendFrame(nil, f)
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	if cc.writeTimeout > 0 {
		cc.conn.SetWriteDeadline(time.Now().Add(cc.writeTimeout))
		defer cc.conn.SetWriteDeadline(time.Time{})
	}
	//lint:ignore lockorder the write IS wmu's critical section (wmu only serializes concurrent control writes) and writeTimeout bounds it
	_, err := cc.conn.Write(buf)
	return err
}

// Cluster is one rank's membership endpoint.
type Cluster struct {
	cfg ClusterConfig
	ln  net.Listener
	tp  *SocketTransport

	mu        sync.Mutex
	started   bool                 // guarded by mu: START sent/received
	running   bool                 // guarded by mu; rank0: a job is in flight, defer rejoins
	joined    map[int]*controlConn // guarded by mu; rank0 only
	peerAddrs []string             // guarded by mu: data-plane listen address per rank
	deadOrder []int                // guarded by mu: dead ranks in verdict broadcast order
	genCount  uint32               // guarded by mu; rank0: last allocated wire generation

	ctl *controlConn // worker side: the join connection to rank 0

	dead     []atomic.Bool
	epoch    atomic.Int32  // death verdicts issued/processed
	gen      atomic.Uint32 // adopted wire generation, stamped into data frames
	lastBeat []atomic.Int64

	// bcastMu serializes every rank-0 control broadcast (verdicts, jobs,
	// membership updates, shutdown, exit) so all workers observe them in one
	// total order; membership admission happens under it too, which pins the
	// gen→job ordering a rejoin depends on. Lock order: bcastMu before mu.
	bcastMu sync.Mutex

	// cbMu guards the callback slots and is held across an invocation, so
	// ClearRunHandlers quiesces in-flight callbacks before a run's executor
	// is torn down.
	cbMu        sync.Mutex
	onDeath     func(rank, epoch int)            // guarded by cbMu
	onShutdown  func()                           // guarded by cbMu
	onCoordLost func(err error)                  // guarded by cbMu
	onJob       func(gen uint32, payload []byte) // guarded by cbMu
	onRejoin    func(rank int, gen uint32)       // guarded by cbMu; rank0
	pendingJob  *pendingJob                      // guarded by cbMu: job that beat OnJob registration

	deaths chan DeathEvent // buffered verdict feed for a supervisor (rank0)

	startCh   chan struct{} // closed when START is received/sent
	startOnce sync.Once
	doneCh    chan struct{} // closed on ctlExit or coordinator loss (workers)
	doneOnce  sync.Once
	quit      chan struct{}
	wg        sync.WaitGroup
	closeMu   sync.Mutex
	closed    bool

	// connMu/conns tracks every accepted connection so Close can unblock
	// their reader goroutines without waiting for the peer to hang up.
	connMu    sync.Mutex
	conns     map[net.Conn]struct{} // guarded by connMu
	connsDone bool                  // guarded by connMu: Close ran, admit no more
}

// NewCluster binds this rank's listener and, on workers, joins rank 0's
// control star (blocking until the join is accepted or rejected). Rank 0
// returns immediately after binding; call Start to run the join barrier.
// Register callbacks (OnDeath, OnShutdown, OnCoordinatorLost) before Start.
//
//dashmm:detached acceptLoop exits when Close closes the listener and quit; c.wg.Wait joins it
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.World < 2 {
		return nil, fmt.Errorf("amt: cluster needs World >= 2, got %d", cfg.World)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.World {
		return nil, fmt.Errorf("amt: rank %d out of range [0,%d)", cfg.Rank, cfg.World)
	}
	if cfg.Network != "tcp" && cfg.Network != "unix" {
		return nil, fmt.Errorf("amt: unsupported network %q (want tcp or unix)", cfg.Network)
	}
	c := &Cluster{
		cfg:      cfg,
		dead:     make([]atomic.Bool, cfg.World),
		lastBeat: make([]atomic.Int64, cfg.World),
		deaths:   make(chan DeathEvent, 4*cfg.World),
		startCh:  make(chan struct{}),
		doneCh:   make(chan struct{}),
		quit:     make(chan struct{}),
		conns:    map[net.Conn]struct{}{},
	}
	bind := cfg.Addr
	if cfg.Rank != 0 {
		bind = workerBindAddr(cfg)
	}
	ln, err := net.Listen(cfg.Network, bind)
	if err != nil {
		return nil, fmt.Errorf("amt: rank %d listen %s %s: %w", cfg.Rank, cfg.Network, bind, err)
	}
	c.ln = ln
	c.tp = newSocketTransport(c)
	c.mu.Lock()
	c.peerAddrs = make([]string, cfg.World)
	c.peerAddrs[0] = cfg.Addr
	c.peerAddrs[cfg.Rank] = ln.Addr().String()
	if cfg.Rank == 0 {
		c.joined = map[int]*controlConn{}
	}
	c.mu.Unlock()
	c.wg.Add(1)
	go c.acceptLoop()
	if cfg.Rank != 0 {
		if err := c.join(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// bindSerial uniquifies unix socket paths when several clusters share one
// process (tests, in-process simulations); pid alone would collide.
var bindSerial atomic.Int64

// workerBindAddr picks a worker's data-plane listen address: an ephemeral
// TCP port, or a per-rank socket file next to rank 0's for unix.
func workerBindAddr(cfg ClusterConfig) string {
	if cfg.Network == "tcp" {
		return "127.0.0.1:0"
	}
	dir := filepath.Dir(cfg.Addr)
	return filepath.Join(dir, fmt.Sprintf("dashmm-r%d-%d-%d.sock", cfg.Rank, os.Getpid(), bindSerial.Add(1)))
}

// DeathEvent is one death verdict, delivered on the Deaths channel.
type DeathEvent struct {
	Rank, Epoch int
}

// OnDeath registers the death-verdict handler (survivor ranks, including
// rank 0). Invoked from a cluster goroutine under the callback lock.
func (c *Cluster) OnDeath(fn func(rank, epoch int)) {
	c.cbMu.Lock()
	c.onDeath = fn
	c.cbMu.Unlock()
}

// OnShutdown registers the run-complete handler (worker ranks).
func (c *Cluster) OnShutdown(fn func()) {
	c.cbMu.Lock()
	c.onShutdown = fn
	c.cbMu.Unlock()
}

// OnCoordinatorLost registers the handler for a broken control connection
// to rank 0 (worker ranks): the coordinator is gone and the run cannot
// complete.
func (c *Cluster) OnCoordinatorLost(fn func(err error)) {
	c.cbMu.Lock()
	c.onCoordLost = fn
	c.cbMu.Unlock()
}

// pendingJob parks a job broadcast that arrived before OnJob was
// registered (a worker admitted into a busy pool can see the first job
// frame land between the handshake and its handler registration).
type pendingJob struct {
	gen     uint32
	payload []byte
}

// OnJob registers the job-broadcast handler (worker ranks). Unlike the
// per-run handlers it is persistent: ClearRunHandlers leaves it in place.
// A job that arrived before registration is delivered immediately.
func (c *Cluster) OnJob(fn func(gen uint32, payload []byte)) {
	c.cbMu.Lock()
	c.onJob = fn
	if p := c.pendingJob; p != nil {
		c.pendingJob = nil
		fn(p.gen, p.payload)
	}
	c.cbMu.Unlock()
}

// OnRejoin registers the re-admission handler (rank 0): invoked after a
// respawned rank is welcomed back, with its fresh wire generation.
func (c *Cluster) OnRejoin(fn func(rank int, gen uint32)) {
	c.cbMu.Lock()
	c.onRejoin = fn
	c.cbMu.Unlock()
}

// ClearRunHandlers detaches the per-run membership callbacks (OnDeath,
// OnShutdown, OnCoordinatorLost), blocking until any in-flight invocation
// returns. A run that shares a standing cluster calls this before its
// executor state is discarded, so a between-runs verdict can never land in
// a dead executor. OnJob and OnRejoin survive: they belong to the pool,
// not the run.
func (c *Cluster) ClearRunHandlers() {
	c.cbMu.Lock()
	c.onDeath, c.onShutdown, c.onCoordLost = nil, nil, nil
	c.cbMu.Unlock()
}

func (c *Cluster) fireDeath(rank, epoch int) {
	c.cbMu.Lock()
	if c.onDeath != nil {
		c.onDeath(rank, epoch)
	}
	c.cbMu.Unlock()
}

func (c *Cluster) fireShutdown() {
	c.cbMu.Lock()
	if c.onShutdown != nil {
		c.onShutdown()
	}
	c.cbMu.Unlock()
}

func (c *Cluster) fireCoordLost(err error) {
	c.cbMu.Lock()
	if c.onCoordLost != nil {
		c.onCoordLost(err)
	}
	c.cbMu.Unlock()
}

func (c *Cluster) fireJob(gen uint32, payload []byte) {
	c.cbMu.Lock()
	if c.onJob != nil {
		c.onJob(gen, payload)
	} else {
		c.pendingJob = &pendingJob{gen: gen, payload: append([]byte(nil), payload...)}
	}
	c.cbMu.Unlock()
}

func (c *Cluster) fireRejoin(rank int, gen uint32) {
	c.cbMu.Lock()
	if c.onRejoin != nil {
		c.onRejoin(rank, gen)
	}
	c.cbMu.Unlock()
}

// Deaths exposes the verdict feed: every death verdict this rank issues
// (rank 0) is also delivered here, for a supervisor that respawns ranks.
func (c *Cluster) Deaths() <-chan DeathEvent { return c.deaths }

func (c *Cluster) emitDeath(ev DeathEvent) {
	select {
	case c.deaths <- ev:
	default: // supervisor far behind: the rank state is still authoritative
	}
}

// Done is closed when this rank should exit: the coordinator broadcast
// EXIT, or (workers) the control connection to rank 0 broke.
func (c *Cluster) Done() <-chan struct{} { return c.doneCh }

func (c *Cluster) signalDone() { c.doneOnce.Do(func() { close(c.doneCh) }) }

func (c *Cluster) markStarted() { c.startOnce.Do(func() { close(c.startCh) }) }

// Transport returns the cluster's data-plane transport.
func (c *Cluster) Transport() *SocketTransport { return c.tp }

// Epoch returns the number of death verdicts issued (rank 0) or processed
// (workers) so far.
func (c *Cluster) Epoch() uint32 { return uint32(c.epoch.Load()) }

// Generation returns this rank's adopted wire generation. The transport
// stamps it into every outbound data frame; serveData fences inbound
// frames whose stamp disagrees.
func (c *Cluster) Generation() uint32 { return c.gen.Load() }

// AdoptGeneration switches this rank's wire generation. A run adopts its
// job's generation only after its frame sink is registered, so a frame of
// the new generation can never be acked-and-dropped by the previous run's
// shut-down runtime.
func (c *Cluster) AdoptGeneration(gen uint32) { c.gen.Store(gen) }

// DeadOrder returns the currently-dead ranks in verdict broadcast order.
// Failover composition is order-sensitive, so a run starting with pre-dead
// ranks must replay their failovers in exactly this order.
func (c *Cluster) DeadOrder() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.deadOrder...)
}

// LiveWorkers counts worker ranks not currently declared dead.
func (c *Cluster) LiveWorkers() int {
	n := 0
	for r := 1; r < c.cfg.World; r++ {
		if !c.dead[r].Load() {
			n++
		}
	}
	return n
}

// StartJob allocates a fresh wire generation, snapshots the dead-rank
// order, and broadcasts an application job to every live worker (rank 0
// only). The build callback renders the job payload from that consistent
// (generation, deadOrder) pair. Until EndJob, re-admissions are deferred —
// membership cannot shift under the job's placement. The broadcast and the
// admission path share bcastMu, so every worker observes membership
// updates and jobs in the same order.
func (c *Cluster) StartJob(build func(gen uint32, deadOrder []int) []byte) (uint32, []int) {
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	c.mu.Lock()
	c.running = true
	c.genCount++
	gen := c.genCount
	deadOrder := append([]int(nil), c.deadOrder...)
	conns := c.liveConnsLocked()
	c.mu.Unlock()
	f := &Frame{Kind: ctlJob, Src: 0, Epoch: gen, Payload: build(gen, deadOrder)}
	for _, cc := range conns {
		//lint:ignore lockorder bcastMu held across the fan-out IS the total-order guarantee for control frames; each send is bounded by CtlWriteTimeout
		cc.send(f) // a failed send surfaces via that rank's own heartbeat
	}
	return gen, deadOrder
}

// EndJob re-opens re-admission after a job completes (rank 0 only).
func (c *Cluster) EndJob() {
	c.mu.Lock()
	c.running = false
	c.mu.Unlock()
}

// liveConnsLocked snapshots the control connections of live workers.
//
//dashmm:locked Cluster.mu — documented precondition: every caller snapshots under the membership lock.
func (c *Cluster) liveConnsLocked() []*controlConn {
	conns := make([]*controlConn, 0, len(c.joined))
	for r, cc := range c.joined {
		if !c.dead[r].Load() {
			conns = append(conns, cc)
		}
	}
	return conns
}

// Alive reports whether a rank has not been declared dead.
func (c *Cluster) Alive(rank int) bool { return !c.dead[rank].Load() }

// Rank returns this process's rank.
func (c *Cluster) Rank() int { return c.cfg.Rank }

// World returns the cluster size.
func (c *Cluster) World() int { return c.cfg.World }

// join dials rank 0 and runs the worker side of the handshake; the accepted
// connection becomes the control channel.
//
//dashmm:detached workerControlLoop exits when the control conn closes and beatLoop on c.quit; Close closes both and c.wg.Wait joins
func (c *Cluster) join() error {
	deadline := time.Now().Add(c.cfg.JoinTimeout)
	// Full jitter on the dial/retry backoff (the same policy as
	// SocketTransport.dialPeer): N respawned workers racing back to a
	// recovering coordinator must not stampede it in lockstep.
	rng := rand.New(rand.NewSource(int64(c.cfg.Rank)*1_000_003 + int64(os.Getpid())*7919 + 1))
	backoff := c.cfg.DialBase
	sleepJittered := func() {
		time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff)+1)))
		if backoff *= 2; backoff > c.cfg.DialMax {
			backoff = c.cfg.DialMax
		}
	}
	kind := ctlHello
	if c.cfg.Rejoin {
		kind = ctlRejoin
	}
	var lastErr error
	for {
		if time.Now().After(deadline) {
			if lastErr == nil {
				lastErr = fmt.Errorf("join timeout")
			}
			return fmt.Errorf("amt: rank %d join %s: %w", c.cfg.Rank, c.cfg.Addr, lastErr)
		}
		conn, err := net.DialTimeout(c.cfg.Network, c.cfg.Addr, time.Second)
		if err != nil {
			lastErr = err
			sleepJittered()
			continue
		}
		cc := &controlConn{conn: conn, writeTimeout: c.cfg.CtlWriteTimeout}
		hello := &Frame{Kind: kind, Src: c.cfg.Rank, Payload: encodeHello(c.cfg, c.ln.Addr().String())}
		if err := cc.send(hello); err != nil {
			conn.Close()
			return fmt.Errorf("amt: rank %d hello: %w", c.cfg.Rank, err)
		}
		conn.SetReadDeadline(time.Now().Add(c.cfg.JoinTimeout))
		br := bufio.NewReader(conn)
		resp, err := ReadFrame(br)
		if err != nil {
			conn.Close()
			return fmt.Errorf("amt: rank %d awaiting welcome: %w", c.cfg.Rank, err)
		}
		switch resp.Kind {
		case ctlWelcome:
		case ctlReject:
			conn.Close()
			reason := string(resp.Payload)
			// A transient rejection (a job is mid-flight) is retried in
			// place instead of burning a whole process respawn.
			if c.cfg.Rejoin && strings.HasPrefix(reason, retryPrefix) {
				lastErr = fmt.Errorf("rejected: %s", reason)
				sleepJittered()
				continue
			}
			return fmt.Errorf("amt: rank %d join rejected: %s", c.cfg.Rank, reason)
		default:
			conn.Close()
			return fmt.Errorf("amt: rank %d unexpected join response kind %#x", c.cfg.Rank, resp.Kind)
		}
		conn.SetReadDeadline(time.Time{})
		// A rejoin WELCOME carries the live membership: adopt it and mark
		// the cluster started without waiting for a START broadcast.
		if len(resp.Payload) > 0 {
			if err := c.adoptMembership(resp.Payload); err != nil {
				conn.Close()
				return fmt.Errorf("amt: rank %d rejoin welcome: %w", c.cfg.Rank, err)
			}
		}
		c.ctl = cc
		c.wg.Add(2)
		go c.workerControlLoop(br)
		go c.beatLoop()
		return nil
	}
}

// adoptMembership installs a membership snapshot broadcast by rank 0: the
// wire generation, verdict epoch, peer addresses and dead-rank order. A
// rank listed dead is severed; a rank no longer listed (a re-admitted
// respawn) is revived at its new address.
func (c *Cluster) adoptMembership(payload []byte) error {
	gen, epoch, addrs, deadOrder, err := decodeMembership(payload)
	if err != nil {
		return err
	}
	if len(addrs) != c.cfg.World {
		return fmt.Errorf("membership lists %d ranks, world is %d", len(addrs), c.cfg.World)
	}
	deadSet := make([]bool, c.cfg.World)
	for _, r := range deadOrder {
		if r >= 0 && r < c.cfg.World {
			deadSet[r] = true
		}
	}
	c.mu.Lock()
	c.started = true
	c.peerAddrs = append([]string(nil), addrs...)
	c.deadOrder = append([]int(nil), deadOrder...)
	c.mu.Unlock()
	for r := 0; r < c.cfg.World; r++ {
		if r == c.cfg.Rank {
			continue
		}
		if deadSet[r] {
			if c.dead[r].CompareAndSwap(false, true) {
				c.tp.severPeer(r)
			}
		} else if c.dead[r].CompareAndSwap(true, false) {
			c.tp.revivePeer(r, addrs[r])
		}
	}
	c.epoch.Store(int32(epoch))
	c.gen.Store(gen)
	c.tp.setPeers(addrs, c.dead[:])
	c.markStarted()
	return nil
}

// Start runs the join barrier: rank 0 waits for the full roster and
// broadcasts START with the peer address list; workers wait for START.
// After Start returns successfully the data plane is usable. On a cluster
// that already started (a standing pool running many jobs, a rejoined
// worker) Start returns immediately.
func (c *Cluster) Start() error {
	if c.cfg.Rank == 0 {
		c.mu.Lock()
		already := c.started
		c.mu.Unlock()
		if already {
			return nil
		}
		deadline := time.NewTimer(c.cfg.JoinTimeout)
		defer deadline.Stop()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			c.mu.Lock()
			n := len(c.joined)
			c.mu.Unlock()
			if n == c.cfg.World-1 {
				break
			}
			select {
			case <-deadline.C:
				return fmt.Errorf("amt: join barrier timed out with %d/%d workers", n, c.cfg.World-1)
			case <-c.quit:
				return fmt.Errorf("amt: cluster closed during join barrier")
			case <-tick.C:
			}
		}
		c.mu.Lock()
		c.started = true
		addrs := append([]string(nil), c.peerAddrs...)
		conns := make(map[int]*controlConn, len(c.joined))
		for r, cc := range c.joined {
			conns[r] = cc
		}
		c.mu.Unlock()
		now := time.Now().UnixNano()
		for r := range c.lastBeat {
			c.lastBeat[r].Store(now)
		}
		start := &Frame{Kind: ctlStart, Src: 0, Payload: encodeAddrs(addrs)}
		for r, cc := range conns {
			if err := cc.send(start); err != nil {
				return fmt.Errorf("amt: START to rank %d: %w", r, err)
			}
		}
		c.markStarted()
		c.tp.setPeers(addrs, c.dead[:])
		c.wg.Add(1)
		go c.monitorLoop()
		return nil
	}
	select {
	case <-c.startCh:
		return nil
	case <-c.quit:
		return fmt.Errorf("amt: cluster closed before START")
	case <-time.After(c.cfg.JoinTimeout):
		return fmt.Errorf("amt: rank %d timed out waiting for START", c.cfg.Rank)
	}
}

// acceptLoop serves the rank's listener: first frame classifies the
// connection as a control join (rank 0 only) or a data-plane attach.
//
//dashmm:detached joined by Close: close(c.quit) unblocks the loop via listener Close and c.wg.Wait joins it
func (c *Cluster) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.quit:
				return
			default:
			}
			// Transient accept error: keep serving unless shutting down.
			time.Sleep(time.Millisecond)
			continue
		}
		c.wg.Add(1)
		go c.serveConn(conn)
	}
}

// serveConn classifies and serves one inbound connection.
//
//dashmm:detached reader goroutines exit when their conn closes; Close closes every conn and c.wg.Wait joins them
func (c *Cluster) serveConn(conn net.Conn) {
	defer c.wg.Done()
	if !c.trackConn(conn) {
		conn.Close()
		return
	}
	defer c.untrackConn(conn)
	// A peer that connects and never completes its preamble must not wedge
	// the acceptor's bookkeeping: bound the handshake.
	conn.SetReadDeadline(time.Now().Add(c.cfg.JoinTimeout))
	br := bufio.NewReaderSize(conn, 64<<10)
	first, err := ReadFrame(br)
	if err != nil {
		c.tp.handshakeFails.Add(1)
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	switch first.Kind {
	case ctlHello:
		c.serveJoin(conn, br, first, false)
	case ctlRejoin:
		c.serveJoin(conn, br, first, true)
	case ctlAttach:
		c.serveData(conn, br, first)
	default:
		c.tp.handshakeFails.Add(1)
		conn.Close()
	}
}

// serveJoin handles one worker's join (or rejoin) request on rank 0.
//
//dashmm:detached coordControlLoop exits when its conn closes; Close closes every joined conn and c.wg.Wait joins
func (c *Cluster) serveJoin(conn net.Conn, br *bufio.Reader, hello Frame, rejoin bool) {
	reject := func(reason string) {
		c.tp.handshakeFails.Add(1)
		cc := &controlConn{conn: conn, writeTimeout: c.cfg.CtlWriteTimeout}
		cc.send(&Frame{Kind: ctlReject, Src: 0, Payload: []byte(reason)})
		conn.Close()
	}
	if c.cfg.Rank != 0 {
		reject("join sent to a non-coordinator rank")
		return
	}
	rank, world, stamp, addr, err := decodeHello(hello.Payload)
	if err != nil {
		reject("malformed hello: " + err.Error())
		return
	}
	if world != c.cfg.World {
		reject(fmt.Sprintf("world size mismatch: coordinator runs %d, joiner built for %d", c.cfg.World, world))
		return
	}
	if stamp != c.cfg.Stamp {
		reject(fmt.Sprintf("version stamp mismatch: coordinator %q, joiner %q", c.cfg.Stamp, stamp))
		return
	}
	if rank <= 0 || rank >= c.cfg.World {
		reject(fmt.Sprintf("rank %d out of range [1,%d)", rank, c.cfg.World))
		return
	}
	// Admission and the membership broadcast it triggers are one atomic
	// step with respect to every other rank-0 broadcast (jobs, verdicts):
	// workers must observe "rank r is back, generation g" strictly before
	// any job placed against that membership.
	c.bcastMu.Lock()
	c.mu.Lock()
	if !c.started {
		// Pre-START (re)join: the barrier has not released, the roster
		// simply fills in. A respawn racing the initial bootstrap lands
		// here too and is indistinguishable from a first join.
		if _, dup := c.joined[rank]; dup {
			c.mu.Unlock()
			c.bcastMu.Unlock()
			reject(fmt.Sprintf("rank %d already joined", rank))
			return
		}
		cc := &controlConn{conn: conn, writeTimeout: c.cfg.CtlWriteTimeout}
		c.joined[rank] = cc
		c.peerAddrs[rank] = addr
		c.mu.Unlock()
		c.bcastMu.Unlock()
		c.lastBeat[rank].Store(time.Now().UnixNano())
		if err := cc.send(&Frame{Kind: ctlWelcome, Src: 0}); err != nil {
			conn.Close()
			return
		}
		c.wg.Add(1)
		go c.coordControlLoop(rank, br)
		return
	}
	if !rejoin {
		// After START a plain join — including a crashed rank's restart
		// that predates re-admission — would be handed a stale peer list
		// mid-run; only the REJOIN handshake is admitted.
		c.mu.Unlock()
		c.bcastMu.Unlock()
		reject("run already started: late joiners are not admitted")
		return
	}
	if !c.dead[rank].Load() {
		// The rank is still a live member: either a duplicate process, or
		// the old incarnation's silence has not yet crossed the verdict
		// threshold. The latter resolves itself — tell the joiner to retry.
		c.mu.Unlock()
		c.bcastMu.Unlock()
		reject(fmt.Sprintf(retryPrefix+"rank %d is still a live member (no death verdict yet)", rank))
		return
	}
	if c.running {
		// Membership must not shift under a placed job; the joiner backs
		// off and retries between runs.
		c.mu.Unlock()
		c.bcastMu.Unlock()
		reject(retryPrefix + "job in flight: re-admission is deferred between runs")
		return
	}
	// Re-admission: allocate a fresh wire generation, resurrect the rank,
	// and broadcast the new membership to every survivor. Frames from the
	// corpse's incarnation carry an older generation and are fenced.
	c.genCount++
	gen := c.genCount
	if old := c.joined[rank]; old != nil {
		old.conn.Close() // the corpse's control conn, if still half-open
	}
	cc := &controlConn{conn: conn, writeTimeout: c.cfg.CtlWriteTimeout}
	c.joined[rank] = cc
	c.peerAddrs[rank] = addr
	do := c.deadOrder[:0]
	for _, r := range c.deadOrder {
		if r != rank {
			do = append(do, r)
		}
	}
	c.deadOrder = do
	addrs := append([]string(nil), c.peerAddrs...)
	deadOrder := append([]int(nil), c.deadOrder...)
	epoch := uint32(c.epoch.Load())
	c.mu.Unlock()
	// Fresh heartbeat before clearing the dead flag, or the monitor would
	// re-verdict the rank off the corpse's stale timestamp.
	c.lastBeat[rank].Store(time.Now().UnixNano())
	c.dead[rank].Store(false)
	c.tp.revivePeer(rank, addr)
	c.gen.Store(gen)
	payload := encodeMembership(gen, epoch, addrs, deadOrder)
	gf := &Frame{Kind: ctlGen, Src: 0, Payload: payload}
	c.mu.Lock()
	conns := make(map[int]*controlConn, len(c.joined))
	for r, occ := range c.joined {
		if r != rank && !c.dead[r].Load() {
			conns[r] = occ
		}
	}
	c.mu.Unlock()
	for _, occ := range conns {
		//lint:ignore lockorder bcastMu held across the fan-out IS the total-order guarantee for control frames; each send is bounded by CtlWriteTimeout
		occ.send(gf) // a failed send surfaces via that rank's own heartbeat
	}
	//lint:ignore lockorder the welcome must be ordered after the revive broadcast (bcastMu holds that order); send is bounded by CtlWriteTimeout
	welcomeErr := cc.send(&Frame{Kind: ctlWelcome, Src: 0, Payload: payload})
	c.bcastMu.Unlock()
	if welcomeErr != nil {
		// The joiner vanished mid-handshake; it is now marked live with a
		// dead control conn, so the heartbeat monitor re-verdicts it and
		// the supervisor tries again.
		conn.Close()
		return
	}
	c.wg.Add(1)
	go c.coordControlLoop(rank, br)
	c.fireRejoin(rank, gen)
}

// serveData validates a data-plane attach and runs its read loop,
// delivering decoded frames to the transport sink.
func (c *Cluster) serveData(conn net.Conn, br *bufio.Reader, attach Frame) {
	rank, world, stamp, _, err := decodeHello(attach.Payload)
	if err != nil || world != c.cfg.World || stamp != c.cfg.Stamp ||
		rank < 0 || rank >= c.cfg.World || c.dead[rank].Load() {
		c.tp.handshakeFails.Add(1)
		conn.Close()
		return
	}
	for {
		f, err := ReadFrame(br)
		if err != nil {
			// EOF, truncation or corruption: drop the connection. Whatever
			// was in flight is wire loss; the peer redials and the delivery
			// layer retransmits.
			conn.Close()
			return
		}
		c.tp.noteReceived(FrameHeaderSize + len(f.Payload))
		// Generation fence: the sender stamped its adopted wire generation
		// into the frame epoch's high 16 bits (socket.go). A mismatch means
		// the frame belongs to another incarnation of the cluster — a
		// corpse's straggler, or a fresh generation arriving before this
		// rank adopts it. Drop it unacknowledged: the former dies with its
		// sender, the latter is retransmitted once the gap closes.
		fgen := uint16(f.Epoch >> 16)
		if fgen != uint16(c.gen.Load()) {
			c.tp.staleFenced.Add(1)
			continue
		}
		f.Epoch &= 0xffff
		c.tp.deliver(f)
	}
}

// coordControlLoop is rank 0's per-worker control reader: heartbeats in,
// silence handled by the monitor.
//
//dashmm:detached exits when the worker's control conn closes; Close closes all conns and c.wg.Wait joins
func (c *Cluster) coordControlLoop(rank int, br *bufio.Reader) {
	defer c.wg.Done()
	for {
		f, err := ReadFrame(br)
		if err != nil {
			// The control connection broke. Not an immediate verdict — the
			// heartbeat monitor owns death declarations — but stop reading.
			return
		}
		if f.Kind == ctlBeat {
			c.lastBeat[rank].Store(time.Now().UnixNano())
		}
	}
}

// workerControlLoop is the worker-side control reader: START, death
// verdicts, membership updates, jobs, shutdown; a read error means the
// coordinator is gone.
//
//dashmm:detached exits when the control conn closes; Close closes it and c.wg.Wait joins
func (c *Cluster) workerControlLoop(br *bufio.Reader) {
	defer c.wg.Done()
	for {
		f, err := ReadFrame(br)
		if err != nil {
			select {
			case <-c.quit:
				return
			default:
			}
			c.mu.Lock()
			started := c.started
			c.mu.Unlock()
			if started {
				c.fireCoordLost(fmt.Errorf("amt: control connection to rank 0 lost: %w", err))
			}
			// Without a coordinator there is nothing left to wait for: a
			// pool worker parked on Done must exit and be respawned against
			// whatever coordinator comes next.
			c.signalDone()
			return
		}
		switch f.Kind {
		case ctlStart:
			addrs, err := decodeAddrs(f.Payload)
			if err != nil || len(addrs) != c.cfg.World {
				c.fireCoordLost(fmt.Errorf("amt: malformed START frame"))
				c.signalDone()
				return
			}
			c.mu.Lock()
			already := c.started
			c.started = true
			c.peerAddrs = addrs
			c.mu.Unlock()
			if !already {
				c.tp.setPeers(addrs, c.dead[:])
				c.markStarted()
			}
		case ctlDead:
			if len(f.Payload) < 6 {
				continue
			}
			rank := int(binary.LittleEndian.Uint16(f.Payload))
			epoch := int(binary.LittleEndian.Uint32(f.Payload[2:]))
			c.applyVerdict(rank, epoch)
		case ctlGen:
			// Membership update after a re-admission elsewhere in the
			// cluster: adopt the new generation, addresses and dead set.
			if err := c.adoptMembership(f.Payload); err != nil {
				c.fireCoordLost(fmt.Errorf("amt: malformed membership update: %w", err))
				c.signalDone()
				return
			}
		case ctlJob:
			c.fireJob(f.Epoch, f.Payload)
		case ctlShutdown:
			c.fireShutdown()
		case ctlExit:
			c.signalDone()
		}
	}
}

// beatLoop emits the worker's heartbeats to rank 0.
//
//dashmm:detached ticker goroutine exits on c.quit; Close closes quit and c.wg.Wait joins
func (c *Cluster) beatLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.Heartbeat.Interval)
	defer tick.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-tick.C:
			if err := c.ctl.send(&Frame{Kind: ctlBeat, Src: c.cfg.Rank}); err != nil {
				// The control conn is gone; workerControlLoop reports it.
				return
			}
		}
	}
}

// monitorLoop is rank 0's membership detector: a rank whose last heartbeat
// is older than Interval×MissedBeats is declared dead.
//
//dashmm:detached exits on c.quit; Close closes quit and c.wg.Wait joins
func (c *Cluster) monitorLoop() {
	defer c.wg.Done()
	hb := c.cfg.Heartbeat
	thresh := int64(hb.Interval) * int64(hb.MissedBeats)
	tick := time.NewTicker(hb.Interval)
	defer tick.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-tick.C:
			now := time.Now().UnixNano()
			for r := 1; r < c.cfg.World; r++ {
				if c.dead[r].Load() {
					continue
				}
				if now-c.lastBeat[r].Load() > thresh {
					c.DeclareDead(r)
				}
			}
		}
	}
}

// DeclareDead issues a death verdict for a rank (rank 0 only; also the
// test hook for injected deaths): mark, fence the transport, broadcast the
// verdict with its epoch to every surviving worker, and run the local
// OnDeath handler. Idempotent.
func (c *Cluster) DeclareDead(rank int) {
	if c.cfg.Rank != 0 || rank <= 0 || rank >= c.cfg.World {
		return
	}
	// Serialized with jobs and re-admissions: a verdict broadcast must not
	// interleave into the middle of a membership update.
	c.bcastMu.Lock()
	if !c.dead[rank].CompareAndSwap(false, true) {
		c.bcastMu.Unlock()
		return
	}
	epoch := int(c.epoch.Add(1))
	c.tp.severPeer(rank)
	var payload [6]byte
	binary.LittleEndian.PutUint16(payload[0:], uint16(rank))
	binary.LittleEndian.PutUint32(payload[2:], uint32(epoch))
	c.mu.Lock()
	c.deadOrder = append(c.deadOrder, rank)
	conns := make(map[int]*controlConn, len(c.joined))
	for r, cc := range c.joined {
		if !c.dead[r].Load() {
			conns[r] = cc
		}
	}
	c.mu.Unlock()
	f := &Frame{Kind: ctlDead, Src: 0, Payload: payload[:]}
	for _, cc := range conns {
		//lint:ignore lockorder bcastMu held across the fan-out IS the total-order guarantee for control frames; each send is bounded by CtlWriteTimeout
		cc.send(f) // a failed send surfaces via that rank's own heartbeat
	}
	c.bcastMu.Unlock()
	c.fireDeath(rank, epoch)
	c.emitDeath(DeathEvent{Rank: rank, Epoch: epoch})
}

// applyVerdict processes a death verdict on a worker.
func (c *Cluster) applyVerdict(rank, epoch int) {
	if rank < 0 || rank >= c.cfg.World {
		return
	}
	if !c.dead[rank].CompareAndSwap(false, true) {
		return
	}
	c.epoch.Store(int32(epoch))
	c.mu.Lock()
	c.deadOrder = append(c.deadOrder, rank)
	c.mu.Unlock()
	c.tp.severPeer(rank)
	c.fireDeath(rank, epoch)
}

// Shutdown broadcasts the run-complete signal to every live worker (rank 0
// only).
func (c *Cluster) Shutdown() {
	c.broadcastCtl(ctlShutdown)
}

// BroadcastExit tells every live worker to exit its process: the pool is
// being torn down (rank 0 only). Workers observe it via Done.
func (c *Cluster) BroadcastExit() {
	c.broadcastCtl(ctlExit)
}

func (c *Cluster) broadcastCtl(kind uint16) {
	if c.cfg.Rank != 0 {
		return
	}
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	c.mu.Lock()
	conns := c.liveConnsLocked()
	c.mu.Unlock()
	f := &Frame{Kind: kind, Src: 0}
	for _, cc := range conns {
		//lint:ignore lockorder bcastMu held across the fan-out IS the total-order guarantee for control frames; each send is bounded by CtlWriteTimeout
		cc.send(f)
	}
}

// Closed is closed once Close has begun tearing the cluster down: a run on
// this rank can no longer reach its peers and should fail fast.
func (c *Cluster) Closed() <-chan struct{} { return c.quit }

// Close tears the cluster down: listener, control connections, data-plane
// peers, and every cluster goroutine is stopped and joined.
func (c *Cluster) Close() error {
	c.closeMu.Lock()
	if c.closed {
		c.closeMu.Unlock()
		return nil
	}
	c.closed = true
	c.closeMu.Unlock()
	close(c.quit)
	c.ln.Close()
	if c.ctl != nil {
		c.ctl.conn.Close()
	}
	c.mu.Lock()
	for _, cc := range c.joined {
		cc.conn.Close()
	}
	c.mu.Unlock()
	// Unblock every accepted-connection reader: a peer that never hangs up
	// (or is this same process, in tests) must not stall the teardown.
	c.connMu.Lock()
	c.connsDone = true
	for conn := range c.conns {
		conn.Close()
	}
	c.connMu.Unlock()
	c.tp.close()
	c.wg.Wait()
	return nil
}

// trackConn registers an accepted connection for teardown; false means the
// cluster is already closing and the conn must not be served.
func (c *Cluster) trackConn(conn net.Conn) bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.connsDone {
		return false
	}
	c.conns[conn] = struct{}{}
	return true
}

func (c *Cluster) untrackConn(conn net.Conn) {
	c.connMu.Lock()
	delete(c.conns, conn)
	c.connMu.Unlock()
}

// encodeHello serializes a join/attach preamble.
func encodeHello(cfg ClusterConfig, listenAddr string) []byte {
	buf := make([]byte, 0, 8+len(cfg.Stamp)+len(listenAddr))
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(cfg.Rank))
	buf = append(buf, u16[:]...)
	binary.LittleEndian.PutUint16(u16[:], uint16(cfg.World))
	buf = append(buf, u16[:]...)
	binary.LittleEndian.PutUint16(u16[:], uint16(len(cfg.Stamp)))
	buf = append(buf, u16[:]...)
	buf = append(buf, cfg.Stamp...)
	binary.LittleEndian.PutUint16(u16[:], uint16(len(listenAddr)))
	buf = append(buf, u16[:]...)
	buf = append(buf, listenAddr...)
	return buf
}

func decodeHello(b []byte) (rank, world int, stamp, addr string, err error) {
	get16 := func() (int, bool) {
		if len(b) < 2 {
			return 0, false
		}
		v := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		return v, true
	}
	getStr := func() (string, bool) {
		n, ok := get16()
		if !ok || len(b) < n {
			return "", false
		}
		s := string(b[:n])
		b = b[n:]
		return s, true
	}
	var ok bool
	if rank, ok = get16(); !ok {
		return 0, 0, "", "", fmt.Errorf("short hello (rank)")
	}
	if world, ok = get16(); !ok {
		return 0, 0, "", "", fmt.Errorf("short hello (world)")
	}
	if stamp, ok = getStr(); !ok {
		return 0, 0, "", "", fmt.Errorf("short hello (stamp)")
	}
	if addr, ok = getStr(); !ok {
		return 0, 0, "", "", fmt.Errorf("short hello (addr)")
	}
	return rank, world, stamp, addr, nil
}

// encodeAddrs serializes the START peer-address list.
func encodeAddrs(addrs []string) []byte {
	var buf []byte
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(addrs)))
	buf = append(buf, u16[:]...)
	for _, a := range addrs {
		binary.LittleEndian.PutUint16(u16[:], uint16(len(a)))
		buf = append(buf, u16[:]...)
		buf = append(buf, a...)
	}
	return buf
}

func decodeAddrs(b []byte) ([]string, error) {
	addrs, rest, err := decodeAddrsRest(b)
	if err != nil {
		return nil, err
	}
	_ = rest
	return addrs, nil
}

func decodeAddrsRest(b []byte) ([]string, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("short address list")
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return nil, nil, fmt.Errorf("short address list entry")
		}
		l := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if len(b) < l {
			return nil, nil, fmt.Errorf("short address list entry")
		}
		addrs = append(addrs, string(b[:l]))
		b = b[l:]
	}
	return addrs, b, nil
}

// encodeMembership serializes a membership snapshot: wire generation,
// verdict epoch, peer address list, and the dead ranks in verdict order.
func encodeMembership(gen, epoch uint32, addrs []string, deadOrder []int) []byte {
	var u32 [4]byte
	var u16 [2]byte
	buf := make([]byte, 0, 10+16*len(addrs)+2*len(deadOrder))
	binary.LittleEndian.PutUint32(u32[:], gen)
	buf = append(buf, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], epoch)
	buf = append(buf, u32[:]...)
	buf = append(buf, encodeAddrs(addrs)...)
	binary.LittleEndian.PutUint16(u16[:], uint16(len(deadOrder)))
	buf = append(buf, u16[:]...)
	for _, r := range deadOrder {
		binary.LittleEndian.PutUint16(u16[:], uint16(r))
		buf = append(buf, u16[:]...)
	}
	return buf
}

func decodeMembership(b []byte) (gen, epoch uint32, addrs []string, deadOrder []int, err error) {
	if len(b) < 8 {
		return 0, 0, nil, nil, fmt.Errorf("short membership")
	}
	gen = binary.LittleEndian.Uint32(b)
	epoch = binary.LittleEndian.Uint32(b[4:])
	addrs, rest, err := decodeAddrsRest(b[8:])
	if err != nil {
		return 0, 0, nil, nil, err
	}
	if len(rest) < 2 {
		return 0, 0, nil, nil, fmt.Errorf("short membership (dead list)")
	}
	n := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) < 2*n {
		return 0, 0, nil, nil, fmt.Errorf("short membership (dead entries)")
	}
	deadOrder = make([]int, 0, n)
	for i := 0; i < n; i++ {
		deadOrder = append(deadOrder, int(binary.LittleEndian.Uint16(rest[2*i:])))
	}
	return gen, epoch, addrs, deadOrder, nil
}
