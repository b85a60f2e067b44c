package dist

import (
	"fmt"
	"maps"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/exec"
	"datacutter/internal/faults"
	"datacutter/internal/obs"
)

// Worker serves one named host of distributed runs: it builds the filter
// copies placed on its host, executes them, and exchanges stream buffers
// and acknowledgments with peer workers over TCP.
//
// A worker is persistent and multi-tenant: it outlives individual runs and
// serves any number of concurrent sessions, one per job id (Options.JobID,
// carried on every setup, data, ack, and producer-done frame). A second
// setup for a job whose session is still active is refused — the pre-job
// single-session behaviour, preserved for plain dist.Run coordinators that
// leave JobID zero.
type Worker struct {
	ln net.Listener
	mu sync.Mutex
	// sessions holds the active session of each job; a session is removed
	// when it ends. The most recently ended one is kept in last — and a
	// bounded per-job map in ended — so Instances/InstancesJob can retrieve
	// sink results after a run returns without the worker accumulating
	// every session it ever served.
	sessions   map[uint64]*session
	last       *session
	ended      map[uint64]*session
	endedOrder []uint64
	// draining refuses new setups while in-flight sessions finish (Drain).
	draining bool
	closed   atomic.Bool

	// obsrv and wm are set by SetObserver before Serve; nil = disabled.
	// wm is atomic because accepted connections resolve it concurrently.
	obsrv *obs.Observer
	wm    atomic.Pointer[workerMetrics]

	// fi is this process's fault injector (SetFaults, before Serve).
	fi *faults.Injector

	// Every live connection (control, inbound peer, outbound peer) is
	// tracked so Kill can sever them all at once, simulating a process
	// crash without actually exiting the test binary.
	connsMu sync.Mutex
	conns   map[*conn]struct{}
	rings   map[*ringLink]struct{}
	killed  bool
}

// workerMetrics are the worker's live per-frame counters, resolved once so
// the data path never touches the registry lock.
type workerMetrics struct {
	rxDataFrames *obs.Counter
	rxDataBytes  *obs.Counter
	rxAckFrames  *obs.Counter
	rxRingFrames *obs.Counter // data frames that arrived over in-process rings
	txDataFrames *obs.Counter
	txDataBytes  *obs.Counter
	txAckFrames  *obs.Counter
	redials      *obs.Counter // peer-mesh dial retries
	// Batched-writer instrumentation, shared by every outbound connection.
	cm *connMetrics
}

// SetObserver attaches the observability subsystem: per-frame byte and
// acknowledgment counters in the observer's registry, batched-writer flush
// metrics (dist.tx.flushes, dist.tx.frames_per_flush, dist.tx.frame_bytes),
// plus buffer-lifecycle trace events (wall-clock time domain). Must be
// called before Serve.
func (w *Worker) SetObserver(o *obs.Observer) {
	w.obsrv = o
	if reg := o.Registry(); reg != nil {
		w.wm.Store(&workerMetrics{
			rxDataFrames: reg.Counter("dist.rx.data_frames"),
			rxDataBytes:  reg.Counter("dist.rx.data_bytes"),
			rxAckFrames:  reg.Counter("dist.rx.ack_frames"),
			rxRingFrames: reg.Counter("dist.rx.ring_frames"),
			txDataFrames: reg.Counter("dist.tx.data_frames"),
			txDataBytes:  reg.Counter("dist.tx.data_bytes"),
			txAckFrames:  reg.Counter("dist.tx.ack_frames"),
			redials:      reg.Counter("dist.redials"),
			cm: &connMetrics{
				flushes:        reg.Counter("dist.tx.flushes"),
				framesPerFlush: reg.Histogram("dist.tx.frames_per_flush"),
				frameBytes:     reg.Histogram("dist.tx.frame_bytes"),
				writevCalls:    reg.Counter("dist.tx.writev_calls"),
				writevIovecs:   reg.Histogram("dist.tx.writev_iovecs"),
				writevBytes:    reg.Counter("dist.tx.writev_bytes"),
			},
		})
	}
}

// metrics returns the worker's live counters (nil = disabled).
func (w *Worker) metrics() *workerMetrics { return w.wm.Load() }

// connMetrics returns the batched-writer instrumentation for this worker's
// connections (nil when observability is disabled).
func (w *Worker) connMetrics() *connMetrics {
	if m := w.wm.Load(); m != nil {
		return m.cm
	}
	return nil
}

// NewWorker starts a worker listening on addr ("127.0.0.1:0" for an
// ephemeral test port). Call Serve (usually in a goroutine) to accept
// connections.
func NewWorker(addr string) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		ln:       ln,
		sessions: make(map[uint64]*session),
		ended:    make(map[uint64]*session),
		conns:    make(map[*conn]struct{}),
		rings:    make(map[*ringLink]struct{}),
	}
	// Advertise this worker for same-process ring transport selection.
	registerInproc(w)
	return w, nil
}

// Addr returns the listening address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// SetFaults attaches a fault injector to every connection this worker opens
// or accepts, and arms kill directives to Kill the worker. Must be called
// before Serve.
func (w *Worker) SetFaults(in *faults.Injector) {
	w.fi = in
	in.OnKill(w.Kill)
}

// track registers a connection for Kill and wires in the fault injector.
func (w *Worker) track(c *conn) *conn {
	c.fi = w.fi
	c.onClose = func() {
		w.connsMu.Lock()
		delete(w.conns, c)
		w.connsMu.Unlock()
	}
	w.connsMu.Lock()
	killed := w.killed
	if !killed {
		w.conns[c] = struct{}{}
	}
	w.connsMu.Unlock()
	if killed {
		c.abort()
	}
	return c
}

// severConns hard-closes every tracked connection. The snapshot is taken
// under connsMu but the aborts run outside it — abort fires onClose, which
// re-takes the lock to prune the map.
func (w *Worker) severConns(markKilled bool) {
	w.connsMu.Lock()
	if markKilled {
		w.killed = true
	}
	cs := make([]*conn, 0, len(w.conns))
	for c := range w.conns {
		cs = append(cs, c)
	}
	rls := make([]*ringLink, 0, len(w.rings))
	for rl := range w.rings {
		rls = append(rls, rl)
	}
	w.connsMu.Unlock()
	for _, c := range cs {
		c.abort()
	}
	for _, rl := range rls {
		rl.close()
	}
}

// Close stops the listener, severs all connections, and tears down every
// active session.
func (w *Worker) Close() {
	w.closed.Store(true)
	unregisterInproc(w)
	w.ln.Close()
	w.severConns(false)
	for _, s := range w.liveSessions() {
		s.abort.Fail(fmt.Errorf("dist: worker closed"))
	}
}

// liveSessions snapshots the active sessions.
func (w *Worker) liveSessions() []*session {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*session, 0, len(w.sessions))
	for _, s := range w.sessions {
		out = append(out, s)
	}
	return out
}

// Drain stops accepting new sessions (setups are refused with a draining
// message) and waits up to timeout for the in-flight ones to finish. It
// returns true when the worker went idle — the graceful half of a
// SIGTERM handler; callers typically Close afterwards either way.
func (w *Worker) Drain(timeout time.Duration) bool {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		w.mu.Lock()
		n := len(w.sessions)
		w.mu.Unlock()
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Kill simulates a process crash: the listener and every live connection
// are hard-closed with no flush and no farewell frames, so peers and the
// coordinator see raw resets/EOFs exactly as they would from a real death.
// The worker accepts no further connections.
func (w *Worker) Kill() {
	w.closed.Store(true)
	unregisterInproc(w)
	w.ln.Close()
	w.severConns(true)
	for _, s := range w.liveSessions() {
		s.abort.Fail(fmt.Errorf("dist: worker killed"))
	}
}

// Serve accepts coordinator and peer connections until Close.
func (w *Worker) Serve() {
	for {
		c, err := w.ln.Accept()
		if err != nil {
			return
		}
		go w.handle(w.track(newConn(c, w.connMetrics())))
	}
}

// Instances returns the local filter instances for a filter name from the
// active sessions, falling back to the most recently ended one — the
// distributed analogue of Runner.Instances for retrieving results held by
// sink filters. With concurrent jobs in flight, prefer InstancesJob: two
// jobs may reuse a filter name.
func (w *Worker) Instances(name string) []core.Filter {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []core.Filter
	for _, job := range w.jobIDsLocked() {
		out = append(out, w.sessions[job].rt.Instances(name)...)
	}
	if len(out) == 0 && w.last != nil {
		out = w.last.rt.Instances(name)
	}
	return out
}

// InstancesJob returns the local filter instances for one job's session —
// the active one, or that job's most recently ended session while it is
// still within the worker's bounded retention window.
func (w *Worker) InstancesJob(job uint64, name string) []core.Filter {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s := w.sessions[job]; s != nil {
		return s.rt.Instances(name)
	}
	if s := w.ended[job]; s != nil {
		return s.rt.Instances(name)
	}
	return nil
}

// endedRetention bounds how many finished sessions a persistent worker keeps
// for post-run result retrieval (InstancesJob): one per job, newest wins,
// oldest evicted beyond the cap — a long-lived worker serving thousands of
// jobs must not accumulate every sink it ever ran.
const endedRetention = 8

// rememberEndedLocked records a finished session for InstancesJob; callers
// hold w.mu.
func (w *Worker) rememberEndedLocked(job uint64, s *session) {
	if _, seen := w.ended[job]; !seen {
		w.endedOrder = append(w.endedOrder, job)
		if len(w.endedOrder) > endedRetention {
			delete(w.ended, w.endedOrder[0])
			w.endedOrder = w.endedOrder[1:]
		}
	}
	w.ended[job] = s
}

// jobIDsLocked returns the active job ids sorted, for deterministic
// iteration; callers hold w.mu.
func (w *Worker) jobIDsLocked() []uint64 {
	ids := make([]uint64, 0, len(w.sessions))
	for id := range w.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// handle dispatches an incoming connection by its first frame: a Setup
// frame makes it the coordinator control connection, a Hello frame a peer
// data connection.
func (w *Worker) handle(c *conn) {
	f, err := c.recv()
	if err != nil {
		c.close()
		return
	}
	switch f.Kind {
	case kindSetup:
		w.runSession(c, f.Setup)
	case kindHello:
		w.servePeer(c)
	default:
		c.close()
	}
}

// servePeer pumps data/ack/producer-done frames into their job's session:
// every frame on the binary plane leads with a job id. Frames are
// dispatched only into sessions that were up when the link formed.
func (w *Worker) servePeer(c *conn) {
	defer c.close()
	bound := w.peerSessions()
	for {
		f, err := c.recv()
		if err != nil {
			return
		}
		w.countRx(f)
		s := w.peerSession(f.Job, bound)
		if s == nil {
			f.release() // stale frame after the job's session ended
			continue
		}
		s.dispatchPeer(f)
	}
}

// peerSessions snapshots the sessions a new inbound peer link may feed. A
// peer attaches a link only while its job's session here is up (sessions
// are set up on every host before any unit of work runs), so a frame whose
// job's session has ended or been replaced since is the tail of an aborted
// or rescaled attempt, still in the link when the successor session
// started. Handing it to the successor would feed it buffers it never
// asked for, possibly after its queues closed.
func (w *Worker) peerSessions() map[uint64]*session {
	w.mu.Lock()
	defer w.mu.Unlock()
	return maps.Clone(w.sessions)
}

// peerSession returns the session a peer frame of job belongs to, or nil
// when the frame is stale: the job's session ended, or is not the one the
// link was bound to.
func (w *Worker) peerSession(job uint64, bound map[uint64]*session) *session {
	w.mu.Lock()
	s := w.sessions[job]
	w.mu.Unlock()
	if s != bound[job] {
		return nil
	}
	return s
}

// countRx counts one inbound peer frame, whether or not its session is
// still live (acknowledgments routinely trail a producer's session end).
func (w *Worker) countRx(f *frame) {
	m := w.metrics()
	switch {
	case m == nil:
	case f.Kind == kindData:
		m.rxDataFrames.Inc()
		m.rxDataBytes.Add(int64(f.Size))
	case f.Kind == kindAck:
		m.rxAckFrames.Inc()
	}
}

// busyMsg is the refusal a worker sends for a Setup of a job whose session
// is active. The coordinator's setup path retries on exactly this message —
// after an abort, a re-setup can race the old session's last breath.
const busyMsg = "dist: worker busy with another session"

// drainingMsg is the refusal a worker sends for any Setup while draining;
// coordinators fail fast on it (no retry — the worker is going away).
const drainingMsg = "dist: worker draining"

// runSession executes one coordinator-driven session on this worker.
// Sessions are keyed by job id: a second Setup for the *same* job while
// its session is active is refused rather than silently clobbering the
// running one, while setups for other jobs run concurrently.
//
// Phase operations run in goroutines so the control loop keeps reading:
// heartbeats refresh the read deadline and a kindAbort can interrupt a
// phase blocked on a dead peer. The coordinator is lock-step per worker, so
// at most one operation is in flight outside of teardown.
func (w *Worker) runSession(ctrl *conn, setup *setupMsg) {
	defer ctrl.close()
	s, err := newSession(w, setup)
	if err != nil {
		_ = ctrl.send(&frame{Kind: kindFail, Err: err.Error()})
		return
	}
	job := setup.Opts.JobID
	w.mu.Lock()
	switch {
	case w.draining:
		w.mu.Unlock()
		_ = ctrl.send(&frame{Kind: kindFail, Err: drainingMsg})
		return
	case w.sessions[job] != nil:
		w.mu.Unlock()
		_ = ctrl.send(&frame{Kind: kindFail, Err: busyMsg})
		return
	}
	w.sessions[job] = s
	w.mu.Unlock()

	opts := &setup.Opts
	var opWG sync.WaitGroup
	// endSession teardown order matters: closing peers first unblocks any
	// phase goroutine stuck in a TCP send to a dead host, so the Wait
	// cannot hang; only then is the session unregistered (a new Setup for
	// the job is accepted from that point, while Instances still reads the
	// copies via w.last).
	endSession := func() {
		s.closePeers()
		opWG.Wait()
		w.mu.Lock()
		s.ended = true
		if w.sessions[job] == s {
			delete(w.sessions, job)
		}
		w.last = s
		w.rememberEndedLocked(job, s)
		w.mu.Unlock()
	}

	if err := ctrl.send(&frame{Kind: kindSetupOK}); err != nil {
		endSession()
		return
	}

	// phase runs one coordinator-ordered operation off the control loop (so
	// heartbeats and an abort are still read) and sends its reply — unless
	// this worker is going down: a killed process answers nothing, and a
	// phase that failed because the kill severed its own links must not be
	// reported as a peer's fault.
	phase := func(op func() *frame) {
		opWG.Add(1)
		go func() {
			defer opWG.Done()
			if f := op(); !w.closed.Load() {
				_ = ctrl.send(f)
			}
		}()
	}
	replyOr := func(err error, ok *frame) *frame {
		if err != nil {
			return s.failFrame(err)
		}
		return ok
	}

	// Worker->coordinator heartbeats from a dedicated sender, so liveness
	// flows even while a phase computes. A wedged (fault-injected) process
	// goes silent, exactly like a frozen real one.
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		t := time.NewTicker(opts.hbInterval())
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if w.fi.Wedged() {
					continue
				}
				if ctrl.send(&frame{Kind: kindHeartbeat}) != nil {
					return
				}
			case <-hbStop:
				return
			}
		}
	}()

	for {
		// Silence beyond the miss budget means the coordinator is gone;
		// its heartbeats re-arm the deadline every interval.
		ctrl.setReadDeadline(opts.hbTimeout())
		f, err := ctrl.recv()
		if err != nil {
			s.abort.Fail(fmt.Errorf("dist: coordinator connection lost: %w", err))
			endSession()
			return
		}
		switch f.Kind {
		case kindHeartbeat:
			// Liveness only; the recv already reset the deadline clock.
		case kindInitUOW:
			msg := f.UOW
			phase(func() *frame {
				decls, err := s.initUOW(msg)
				return replyOr(err, &frame{Kind: kindDecls, Decls: decls})
			})
		case kindBeginProcess:
			sizes := f.Sizes
			phase(func() *frame { return replyOr(s.process(sizes), &frame{Kind: kindProcessDone}) })
		case kindFinalize:
			phase(func() *frame {
				st, err := s.finalize()
				return replyOr(err, &frame{Kind: kindFinalizeDone, Stats: st})
			})
		case kindAbort:
			// Coordinator-ordered teardown (typically a peer host died).
			// Unblock everything, wait the phase out, end the session so a
			// re-setup is accepted the moment AbortDone is on the wire.
			s.abort.Fail(fmt.Errorf("dist: run aborted by coordinator: %s", f.Err))
			endSession()
			ctrl.setReadDeadline(0)
			_ = ctrl.send(&frame{Kind: kindAbortDone})
			return
		case kindShutdown:
			// Confirm after endSession so the coordinator knows the job slot
			// is free: a back-to-back Run's Setup would otherwise race the
			// teardown and be refused busy, eating a retry backoff.
			endSession()
			ctrl.setReadDeadline(0)
			_ = ctrl.send(&frame{Kind: kindShutdownDone})
			return
		}
	}
}

// ---- Session ----

// session is one job's run on this worker: the shared copy-set runtime
// (internal/exec) restricted to this host's copy sets, driven one phase at
// a time by the coordinator. The session is also the runtime's engine: the
// wall clock, goroutines, a delivery queue per local copy set fed by local
// producers and by wire frames (dispatchPeer), peer links for remote picks
// and acknowledgments, the producer-done broadcast, and failure
// attribution.
type session struct {
	w     *Worker
	setup *setupMsg
	// job namespaces this session's frames on the shared worker mesh.
	job   uint64
	rt    *exec.Runtime
	epoch time.Time
	exec.Goroutines

	peersMu sync.Mutex
	peers   map[string]peerLink

	// abort holds the session's first failure. When it was a transport
	// error talking to a peer, failHost/failNet (guarded by failMu)
	// attribute it — the coordinator uses them to tell a dead host's
	// cascade apart from an application error.
	abort    *exec.Abort
	failMu   sync.Mutex
	failHost string
	failNet  bool
	// ended marks the session finished (guarded by Worker.mu); the worker
	// then accepts a new Setup while Instances still reads the old copies.
	ended bool

	uowMu sync.Mutex
	uow   *exec.UOW
}

func newSession(w *Worker, setup *setupMsg) (*session, error) {
	s := &session{
		w: w, setup: setup, job: setup.Opts.JobID, epoch: time.Now(),
		peers: make(map[string]peerLink),
		abort: exec.NewAbort(),
	}
	specs := make(map[string]FilterSpec, len(setup.Graph.Filters))
	names := make([]string, 0, len(setup.Graph.Filters))
	for _, fs := range setup.Graph.Filters {
		if _, err := builderFor(fs.Kind); err != nil {
			return nil, err
		}
		specs[fs.Name] = fs
		names = append(names, fs.Name)
	}
	// The names were validated coordinator-side before setup shipped; a name
	// that somehow fails here falls back to Round Robin via the zero config
	// ParsePolicies returns rather than crashing mid-session.
	pol, _ := exec.ParsePolicies(setup.Opts.Policy, setup.Opts.StreamPolicy)
	var err error
	s.rt, err = exec.New(exec.Config{
		Prefix: "dist", Filters: names, Streams: setup.Graph.Streams, Placement: setup.Placement,
		Local: setup.Host, Policies: pol,
		QueueCap: setup.Opts.QueueCap, BufferBytes: setup.Opts.BufferBytes,
		Build: func(name, _ string) (core.Filter, error) {
			b, _ := builderFor(specs[name].Kind)
			filt, err := b(specs[name].Params)
			if err != nil {
				return nil, fmt.Errorf("dist: building %s: %w", name, err)
			}
			return filt, nil
		},
		// Near-storage instrumentation: a filter that owns a prunable store
		// gets this worker's observer, so pushdown metrics are recorded
		// where the pruning decision runs.
		AttachObserver: true,
		Obs:            w.obsrv,
	}, s)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// failTransport records a failure caused by the network path to host. Only
// the first recorded failure carries attribution: a transport error that
// arrives after an application error is a cascade, not a cause.
func (s *session) failTransport(host string, err error) {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if s.abort.Fail(err) {
		s.failHost = host
		s.failNet = true
	}
}

// failFrame builds the kindFail reply for err, attaching the session's
// transport attribution when its first failure implicated a peer host.
func (s *session) failFrame(err error) *frame {
	f := &frame{Kind: kindFail, Err: err.Error()}
	s.failMu.Lock()
	if s.failNet {
		f.FailNet = true
		f.FailHost = s.failHost
	}
	s.failMu.Unlock()
	return f
}

func (s *session) closePeers() {
	s.peersMu.Lock()
	defer s.peersMu.Unlock()
	for _, c := range s.peers {
		c.close()
	}
}

// peer returns (attaching on demand) the outbound link to a host.
// Transport selection is per-edge: with Options.Transport "ring" or "auto",
// a peer whose advertised address is served by a live Worker in this
// process gets an in-process ring link (no sockets, no codec); otherwise —
// always, for the default "tcp" — the dial goes through dialRetry, the
// shared backoff+jitter helper bounded per attempt by Options.DialTimeout,
// so a peer mid-restart is retried rather than failing the run, and a
// session being torn down cancels the backoff wait via its abort. newConn
// sets TCP_NODELAY: the connection's vectored batch writer already
// coalesces small frames, so Nagle would only delay those batches.
func (s *session) peer(host string) (peerLink, error) {
	s.peersMu.Lock()
	defer s.peersMu.Unlock()
	if c, ok := s.peers[host]; ok {
		return c, nil
	}
	addr, ok := s.setup.Addrs[host]
	if !ok {
		return nil, fmt.Errorf("dist: no address for host %q", host)
	}
	switch s.setup.Opts.Transport {
	case TransportRing, TransportAuto:
		if dst := inprocWorker(addr); dst != nil {
			rl, err := newRingLink(s.w, dst)
			if err == nil {
				s.peers[host] = rl
				return rl, nil
			}
			if s.setup.Opts.Transport == TransportRing {
				return nil, fmt.Errorf("dist: ring link to peer %s (%s): %w", host, addr, err)
			}
			// auto: the in-process worker died between lookup and attach;
			// fall through to TCP, which will fail or reach a restart.
		} else if s.setup.Opts.Transport == TransportRing {
			return nil, fmt.Errorf("dist: transport \"ring\" but peer %s (%s) is not in this process", host, addr)
		}
	}
	var redials *obs.Counter
	if m := s.w.metrics(); m != nil {
		redials = m.redials
	}
	nc, err := dialRetry(addr, &s.setup.Opts, s.w.fi, redials, s.abort.Done())
	if err != nil {
		return nil, fmt.Errorf("dist: dialing peer %s: %w", host, err)
	}
	c := s.w.track(newConn(nc, s.w.connMetrics()))
	if err := c.send(&frame{Kind: kindHello}); err != nil {
		c.close()
		return nil, fmt.Errorf("dist: greeting peer %s (%s): %w", host, addr, err)
	}
	s.peers[host] = c
	return c, nil
}

// published returns the unit of work initUOW published last, or nil.
func (s *session) published() *exec.UOW {
	s.uowMu.Lock()
	defer s.uowMu.Unlock()
	return s.uow
}

// current returns the published unit of work when it is unit idx.
func (s *session) current(idx int) *exec.UOW {
	if u := s.published(); u != nil && u.Index == idx {
		return u
	}
	return nil
}

// initUOW wires a unit of work and runs every local copy's Init, returning
// the buffer bounds they declared for the coordinator to resolve.
func (s *session) initUOW(msg *uowMsg) (map[string][2]int, error) {
	var work any
	if len(msg.Work) > 0 {
		var err error
		work, err = decodeAny(msg.Work)
		if err != nil {
			return nil, fmt.Errorf("dist: decoding unit of work: %w", err)
		}
	}
	// Each unit of work reports its own stats fragment.
	s.rt.ResetStats()
	u, err := s.rt.NewUOW(msg.Index, work, s.abort)
	if err != nil {
		return nil, err
	}
	s.uowMu.Lock()
	s.uow = u
	s.uowMu.Unlock()
	if err := u.Init(); err != nil {
		return nil, err
	}
	return u.Decls(), nil
}

// process installs the coordinator's buffer sizes and runs every local
// copy's Process.
func (s *session) process(sizes map[string]int) error {
	u := s.published()
	if u == nil {
		return fmt.Errorf("dist: BeginProcess before InitUOW")
	}
	u.SetBufferSizes(sizes)
	return u.Process()
}

// finalize runs Finalize on local copies and returns the stats fragment.
func (s *session) finalize() (*wireStats, error) {
	u := s.published()
	if u == nil {
		return nil, fmt.Errorf("dist: Finalize before InitUOW")
	}
	if err := u.Finalize(); err != nil {
		return nil, err
	}
	st := s.rt.Stats()
	ws := &wireStats{
		StreamBuffers: make(map[string]int64), StreamBytes: make(map[string]int64),
		StreamAcks: make(map[string]int64), PerTarget: make(map[string]map[string]int64),
		FilterBusy: make(map[string][]float64),
	}
	for name, ss := range st.Streams {
		if ss.Buffers != 0 {
			ws.StreamBuffers[name], ws.StreamBytes[name] = ss.Buffers, ss.Bytes
		}
		if ss.Acks != 0 {
			ws.StreamAcks[name] = ss.Acks
		}
		if len(ss.PerTargetHost) > 0 {
			ws.PerTarget[name] = ss.PerTargetHost
		}
	}
	// A copy's busy time is its whole Init, Process and Finalize time: dist
	// reports no stall split.
	for name, fs := range st.Filters {
		for _, cp := range s.rt.Copies(name) {
			if cp.Filter != nil {
				ws.FilterBusy[name] = append(ws.FilterBusy[name], fs.WallSeconds[cp.Index])
			}
		}
	}
	return ws, nil
}

// dispatchPeer handles one inbound peer frame. Frames carry the unit of
// work they belong to; anything from a stale unit (e.g. a trailing
// acknowledgment that arrives after the next unit's state replaced the
// writer windows) is dropped — stream names repeat every unit, so without
// the check a late ack would corrupt the new unit's demand counts.
func (s *session) dispatchPeer(f *frame) {
	switch f.Kind {
	case kindData:
		var st *exec.Stream
		var q exec.ChanQueue
		if u := s.current(f.UOWIdx); u != nil {
			if st = u.Stream(f.Stream); st != nil {
				q, _ = st.Queue(s.setup.Host).(exec.ChanQueue)
			}
		}
		if q == nil || f.Copy < 0 || f.Copy >= len(s.rt.Copies(st.Spec.From)) {
			f.release()
			return
		}
		var payload any
		var release func()
		if f.hasPayloadVal {
			// Ring transport: the producer's value arrived by reference —
			// no wire encode ever happened, so there is nothing to decode.
			payload = f.payloadVal
		} else {
			var err error
			payload, release, err = decodePayload(f)
			if err != nil {
				s.abort.Fail(fmt.Errorf("dist: decoding buffer on %s: %w", f.Stream, err))
				return
			}
		}
		d := exec.Delivery{
			Buf: core.Buffer{Payload: payload, Size: f.Size}, AckEvery: f.AckN,
			Ack:     exec.AckTo{Host: s.rt.Copies(st.Spec.From)[f.Copy].Host, Copy: f.Copy, Target: f.Target},
			Release: release,
		}
		select {
		case q <- d: // blocking here exerts TCP backpressure upstream
			// Copy -1: arrival on the host's shared copy-set queue — the
			// consuming copy is only decided at dequeue time.
			s.w.obsrv.Emit(obs.Event{Kind: obs.KindEnqueue, Filter: st.Spec.To, Copy: -1, Host: s.setup.Host, Stream: f.Stream, Target: s.setup.Host, Bytes: f.Size, UOW: f.UOWIdx, Note: "rx"})
		case <-s.abort.Done():
			if release != nil {
				release()
			}
		}
	case kindAck:
		if u := s.current(f.UOWIdx); u != nil {
			if ch, ok := u.AckSource(f.Stream, f.Copy).(exec.AckChan); ok {
				ch.Offer(f.Target, f.AckN) // overflow: drop (conservative)
			}
		}
	case kindProducerDone:
		if u := s.current(f.UOWIdx); u != nil {
			if st := u.Stream(f.Stream); st != nil {
				st.ProducerDone()
			}
		}
	}
}

// ---- exec.Engine ----

// Now implements exec.Engine: wall seconds since the session began.
func (s *session) Now() float64 { return time.Since(s.epoch).Seconds() }

// NewQueue implements exec.Engine: the local copy set's delivery queue,
// fed by local producers (Output.Deliver) and wire frames (dispatchPeer).
func (s *session) NewQueue(_ *exec.Stream, _ string, capacity int) exec.Queue {
	return make(exec.ChanQueue, capacity)
}

// Port implements exec.Engine: a same-host pick goes into the local
// copy-set queue (Output.Deliver), a remote one is framed and sent on the
// peer's data connection, where blocking is TCP backpressure.
func (s *session) Port(c *exec.CopyCtx, out *exec.Output) exec.Port {
	st := out.Stream
	return exec.PortFunc(func(idx int, b core.Buffer, ackEvery int) error {
		host := st.Hosts[idx]
		if host == s.setup.Host {
			return out.Deliver(idx, b, ackEvery)
		}
		peer, err := s.peer(host)
		if err != nil {
			s.failTransport(host, err)
			return core.ErrCancelled
		}
		// The payload is serialized by the conn via the codec registry (fast
		// path for registered types, gob otherwise), outside the
		// connection's write lock.
		if err := peer.send(dataFrame(s.job, c.UOW(), st.Spec.Name, c.CopyIndex(), idx, ackEvery, b.Size, b.Payload)); err != nil {
			s.failTransport(host, fmt.Errorf("dist: sending buffer for %s to %s: %w", st.Spec.Name, host, err))
			return core.ErrCancelled
		}
		c.CountSent(st, b.Size)
		if m := s.w.metrics(); m != nil {
			m.txDataFrames.Inc()
			m.txDataBytes.Add(int64(b.Size))
		}
		s.w.obsrv.Emit(obs.Event{Kind: obs.KindSend, Filter: c.Name(), Copy: c.CopyIndex(), Host: s.setup.Host, Stream: st.Spec.Name, Target: host, Bytes: b.Size, UOW: c.UOW()})
		return nil
	})
}

// NewAcks implements exec.Engine: 4x the never-block bound, because inbound
// wire acks are shed with Offer on overflow, so headroom trades memory for
// fewer conservative drops under fault-injected duplication.
func (s *session) NewAcks(ackCap int) exec.AckSource { return exec.NewAckChan(4 * ackCap) }

// SendAck implements exec.Engine: a local producer's window channel takes
// the ack directly (Offer drops on overflow, which the sizing rules out
// without fault-injected duplication); a remote one gets an ack frame.
func (s *session) SendAck(c *exec.CopyCtx, stream string, to exec.AckTo, n int) {
	if ch, ok := to.Sink.(exec.AckChan); ok {
		ch.Offer(to.Target, n)
		return
	}
	p, err := s.peer(to.Host)
	if err != nil {
		return
	}
	if m := s.w.metrics(); m != nil {
		m.txAckFrames.Inc()
	}
	_ = p.send(&frame{Kind: kindAck, Job: s.job, UOWIdx: c.UOW(), Stream: stream, Copy: to.Copy, Target: to.Target, AckN: n})
}

// EndOfWork implements exec.Engine: every other host holding a consumer
// copy set of st learns that one producer copy finished, on the data
// connections so the marker trails the data. A consumer host we cannot
// reach would wait for the marker forever, so that is a failure.
func (s *session) EndOfWork(c *exec.CopyCtx, st *exec.Stream) {
	for i, host := range st.Hosts {
		if host == s.setup.Host || slices.Contains(st.Hosts[:i], host) {
			continue
		}
		p, err := s.peer(host)
		if err == nil {
			err = p.send(&frame{Kind: kindProducerDone, Job: s.job, UOWIdx: c.UOW(), Stream: st.Spec.Name})
		}
		if err != nil {
			s.failTransport(host, fmt.Errorf("dist: end-of-work for %s undeliverable: %w", st.Spec.Name, err))
		}
	}
}

// Env implements exec.Engine: Compute and ChargeDisk are no-ops.
func (s *session) Env(*exec.CopyCtx) exec.Env { return nil }
