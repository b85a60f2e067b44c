package dist

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/elastic"
	"datacutter/internal/exec"
	"datacutter/internal/obs"
)

// HostsError attributes a failed run to specific hosts: the workers the
// coordinator declared dead (transport errors, heartbeat silence, peer
// failure attribution on kindFail) or could not dial at setup. Callers that
// manage the worker fleet — internal/jobd's failure scoring — unwrap it
// with errors.As to charge the implicated workers instead of treating every
// failure as an anonymous application error.
type HostsError struct {
	Hosts []string // implicated hosts, sorted
	Err   error
}

func (e *HostsError) Error() string {
	return fmt.Sprintf("%v (hosts implicated: %s)", e.Err, strings.Join(e.Hosts, ","))
}

func (e *HostsError) Unwrap() error { return e.Err }

// attributeHosts wraps err with the implicated hosts when there are any.
func attributeHosts(err error, hosts []string) error {
	if err == nil || len(hosts) == 0 {
		return err
	}
	return &HostsError{Hosts: hosts, Err: err}
}

// Run executes a distributed session: it connects to the worker at each
// host's address, ships the graph spec and placement, drives the
// unit-of-work phases (init with buffer-size resolution, process,
// finalize), and aggregates the workers' statistics.
//
// Failure model: worker liveness is tracked with control-plane heartbeats
// (Options.HeartbeatInterval / HeartbeatMisses); when a host is declared
// dead the coordinator aborts the survivors with kindAbort — instead of
// leaving them blocked on dead peer streams — and, when MaxUOWRetries
// allows, re-dispatches the failed unit of work on a placement replanned
// without the dead hosts (legal under the paper's transparent-copy
// semantics: per-UOW filter state is rebuilt by Init). Application errors
// are never retried.
func Run(addrs map[string]string, spec GraphSpec, placement []PlacementEntry, opts Options, uows []any) (*core.Stats, error) {
	return RunObservedCtx(context.Background(), addrs, spec, placement, opts, uows, nil)
}

// RunCtx is Run with a context: cancellation (or a deadline) interrupts the
// run between and during units of work — the coordinator stops waiting on
// workers, broadcasts the abort protocol so their sessions tear down, and
// returns an error wrapping ctx.Err(). This is the cancel plumb-through the
// job service uses for job deadlines and DELETE /jobs/{id}.
func RunCtx(ctx context.Context, addrs map[string]string, spec GraphSpec, placement []PlacementEntry, opts Options, uows []any) (*core.Stats, error) {
	return RunObservedCtx(ctx, addrs, spec, placement, opts, uows, nil)
}

// RunObserved is Run with coordinator-side observability attached: a
// "coord.uow_seconds" latency histogram, per-stream buffer/byte/ack
// counters updated after each unit of work's stats merge, and the
// failure-model counters (coord.uow_retries, coord.hosts_lost,
// dist.heartbeat_misses, dist.redials) plus host-down / uow-retry trace
// events. The observer is coordinator-local only — it is never serialized
// into Options, so workers attach their own via Worker.SetObserver. o may
// be nil (disabled).
func RunObserved(addrs map[string]string, spec GraphSpec, placement []PlacementEntry, opts Options, uows []any, o *obs.Observer) (*core.Stats, error) {
	return RunObservedCtx(context.Background(), addrs, spec, placement, opts, uows, o)
}

// RunObservedCtx is RunObserved with RunCtx's cancellation semantics.
func RunObservedCtx(ctx context.Context, addrs map[string]string, spec GraphSpec, placement []PlacementEntry, opts Options, uows []any, o *obs.Observer) (*core.Stats, error) {
	if len(uows) == 0 {
		uows = []any{nil}
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if _, err := exec.ParsePolicies(opts.Policy, opts.StreamPolicy); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	for _, e := range placement {
		if _, ok := addrs[e.Host]; !ok {
			return nil, fmt.Errorf("dist: placement host %q has no worker address", e.Host)
		}
	}
	filters := make([]string, len(spec.Filters))
	for i, f := range spec.Filters {
		filters[i] = f.Name
	}
	hostOK := func(h string) bool { _, ok := addrs[h]; return ok }
	if err := elastic.ValidateSchedule(filters, opts.ScaleSchedule, hostOK); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}

	if ctx == nil {
		ctx = context.Background()
	}
	co := &coordinator{
		ctx:       ctx,
		spec:      spec,
		opts:      opts,
		o:         o,
		addrs:     make(map[string]string, len(addrs)),
		placement: placement,
		links:     make(map[string]*hostLink, len(addrs)),
		agg:       newAggStats(spec, filters),
	}
	for h, a := range addrs {
		co.addrs[h] = a
	}
	if reg := o.Registry(); reg != nil {
		co.m.uowH = reg.Histogram("coord.uow_seconds")
		co.m.retries = reg.Counter("coord.uow_retries")
		co.m.hostsLost = reg.Counter("coord.hosts_lost")
		co.m.hbMisses = reg.Counter("dist.heartbeat_misses")
		co.m.redials = reg.Counter("dist.redials")
	}
	// Every exit path runs teardown: on anything but a completed graceful
	// shutdown it broadcasts kindAbort so in-flight workers exit promptly
	// instead of waiting for a TCP reset or a blocked peer stream.
	defer co.teardown()

	if err := co.connectAll(); err != nil {
		return co.agg.s, err
	}

	start := time.Now()
	for i, work := range uows {
		if due := elastic.StepsAt(opts.ScaleSchedule, i); len(due) > 0 {
			if err := co.rescaleSessions(due, i); err != nil {
				return co.agg.s, attributeHosts(err, co.deadHosts())
			}
		}
		for attempt := 0; ; attempt++ {
			if cerr := ctx.Err(); cerr != nil {
				return co.agg.s, fmt.Errorf("dist: run cancelled: %w", cerr)
			}
			t0 := time.Now()
			err := co.runUOW(i, work)
			if err == nil {
				d := time.Since(t0).Seconds()
				co.agg.s.PerUOWSeconds = append(co.agg.s.PerUOWSeconds, d)
				co.m.uowH.Observe(d)
				publishCoordGauges(co.o, co.agg)
				break
			}
			dead := co.deadHosts()
			if ctx.Err() != nil || len(dead) == 0 || attempt >= co.opts.MaxUOWRetries {
				return co.agg.s, attributeHosts(err, dead)
			}
			if rerr := co.recover(dead); rerr != nil {
				return co.agg.s, attributeHosts(
					fmt.Errorf("dist: recovering from %q failed: %w", err, rerr), dead)
			}
			co.m.retries.Inc()
			co.o.Emit(obs.Event{Kind: obs.KindUOWRetry, UOW: i, N: attempt + 1,
				Note: "hosts lost: " + strings.Join(dead, ",")})
		}
	}
	co.agg.s.WallSeconds = time.Since(start).Seconds()

	co.shutdownAll()
	return co.agg.s, nil
}

// coordMetrics are the coordinator's resolved metric handles (nil-safe).
type coordMetrics struct {
	uowH      *obs.Histogram
	retries   *obs.Counter // coord.uow_retries
	hostsLost *obs.Counter // coord.hosts_lost
	hbMisses  *obs.Counter // dist.heartbeat_misses
	redials   *obs.Counter // dist.redials
}

// coordinator drives one distributed run. addrs and placement shrink as
// hosts die and units of work are replanned onto the survivors.
type coordinator struct {
	// ctx cancels the run: waits on workers abort, dial backoffs stop, and
	// the deferred teardown broadcasts kindAbort. Never nil.
	ctx       context.Context
	spec      GraphSpec
	opts      Options
	o         *obs.Observer
	addrs     map[string]string
	placement []PlacementEntry
	links     map[string]*hostLink
	agg       *aggStats
	m         coordMetrics

	// shut marks a completed graceful shutdown; teardown then skips the
	// abort broadcast.
	shut bool
}

// connectAll dials and sets up every host in co.addrs, populating co.links.
// A dial or setup failure is attributed to the host that refused — unless
// the run's context was cancelled, which is the caller's doing, not the
// worker's.
func (co *coordinator) connectAll() error {
	for _, host := range co.hostNames() {
		l, err := co.connectHost(host, co.addrs[host])
		if err != nil {
			if co.ctx.Err() != nil {
				return err
			}
			return attributeHosts(err, []string{host})
		}
		co.links[host] = l
	}
	return nil
}

// hostNames returns the current hosts sorted, for deterministic dial and
// gather order.
func (co *coordinator) hostNames() []string {
	names := make([]string, 0, len(co.addrs))
	for h := range co.addrs {
		names = append(names, h)
	}
	sort.Strings(names)
	return names
}

// connectHost dials one worker (with backoff via dialRetry) and completes
// the Setup handshake. A "worker busy" refusal is retried briefly: after an
// abort, the re-setup can race the old session's final teardown.
func (co *coordinator) connectHost(host, addr string) (*hostLink, error) {
	busyDeadline := time.Now().Add(co.opts.hbTimeout() + 2*time.Second)
	backoff := 10 * time.Millisecond
	for {
		nc, err := dialRetry(addr, &co.opts, co.opts.faults, co.m.redials, co.ctx.Done())
		if err != nil {
			return nil, fmt.Errorf("dist: dialing worker %s: %w", host, err)
		}
		c := newConn(nc, nil)
		if err := c.send(&frame{Kind: kindSetup, Setup: &setupMsg{
			Graph: co.spec, Placement: co.placement, Opts: co.opts,
			Addrs: co.addrs, Host: host,
		}}); err != nil {
			c.close()
			return nil, err
		}
		c.setReadDeadline(co.opts.hbTimeout() + 2*time.Second)
		f, err := c.recv()
		c.setReadDeadline(0)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("dist: worker %s setup: %w", host, err)
		}
		switch {
		case f.Kind == kindFail && f.Err == busyMsg && time.Now().Before(busyDeadline):
			c.close()
			select {
			case <-time.After(backoff):
			case <-co.ctx.Done():
				return nil, fmt.Errorf("dist: worker %s setup cancelled: %w", host, co.ctx.Err())
			}
			if backoff *= 2; backoff > 200*time.Millisecond {
				backoff = 200 * time.Millisecond
			}
		case f.Kind == kindFail:
			c.close()
			return nil, fmt.Errorf("dist: worker %s: %s", host, f.Err)
		case f.Kind != kindSetupOK:
			c.close()
			return nil, fmt.Errorf("dist: worker %s: unexpected setup reply %d", host, f.Kind)
		default:
			return newHostLink(host, c, co.opts.hbInterval()), nil
		}
	}
}

// waitReply blocks for the next protocol reply from l, sweeping liveness
// across every live link each heartbeat interval. The sweep is what makes
// detection independent of gather order: when a third host dies while the
// coordinator waits on a healthy one, the healthy host may be blocked
// forever on the dead host's streams (demand-driven writers stop picking a
// dead copy set, so no surviving socket ever errors) — the dead host's
// buffered reader error or heartbeat silence is the only signal. On error
// the casualty — l itself or another host — has been marked dead and a
// host-down event emitted; callers inspect l.dead to tell which.
func (co *coordinator) waitReply(l *hostLink) (*frame, error) {
	// Prefer a buffered reply over a buffered error: the reader may have
	// delivered the reply and then hit the connection teardown.
	select {
	case f := <-l.reply:
		return f, nil
	default:
	}
	interval := co.opts.hbInterval()
	limit := co.opts.hbMisses()
	t := time.NewTimer(interval)
	defer t.Stop()
	for {
		select {
		case f := <-l.reply:
			return f, nil
		case err := <-l.errc:
			co.markDead(l, err)
			return nil, fmt.Errorf("dist: worker %s: %w", l.host, err)
		case <-co.ctx.Done():
			// Cancellation, not a casualty: no host is marked dead; the
			// deferred teardown aborts every worker session.
			return nil, fmt.Errorf("dist: run cancelled: %w", co.ctx.Err())
		case <-t.C:
			if err := co.sweepLiveness(interval, limit); err != nil {
				return nil, err
			}
			t.Reset(interval)
		}
	}
}

// sweepLiveness checks every live link once: a buffered reader error, or a
// full miss budget of heartbeat-interval silences (counted per host in
// hostLink.misses so the tally survives gather moving between hosts),
// declares that host dead.
func (co *coordinator) sweepLiveness(interval time.Duration, limit int) error {
	for _, host := range co.hostNames() {
		l := co.links[host]
		if l == nil || l.dead {
			continue
		}
		select {
		case err := <-l.errc:
			co.markDead(l, err)
			return fmt.Errorf("dist: worker %s: %w", host, err)
		default:
		}
		if time.Duration(time.Now().UnixNano()-l.lastBeat.Load()) >= interval {
			l.misses++
			co.m.hbMisses.Inc()
			if l.misses >= limit {
				err := fmt.Errorf("dist: worker %s silent for %d heartbeat intervals", host, l.misses)
				co.markDead(l, err)
				return err
			}
		} else {
			l.misses = 0
		}
	}
	return nil
}

// markDead records the coordinator's verdict on one host and emits the
// host-down trace event.
func (co *coordinator) markDead(l *hostLink, err error) {
	l.dead = true
	co.o.Emit(obs.Event{Kind: obs.KindHostDown, Host: l.host, Note: err.Error()})
}

// broadcast sends f to every link; the first send error marks that host
// dead and aborts the broadcast (its conn error is sticky anyway).
func (co *coordinator) broadcast(f *frame) error {
	for _, host := range co.hostNames() {
		l := co.links[host]
		if err := l.c.send(f); err != nil {
			l.dead = true
			return fmt.Errorf("dist: worker %s unreachable: %w", host, err)
		}
	}
	return nil
}

// gather awaits one reply per host. A transport failure or heartbeat
// timeout marks the host dead and returns immediately — the remaining
// hosts may be blocked on the dead host's streams, so waiting on them
// in sequence could deadlock the coordinator; recovery aborts them
// instead. A kindFail reply either implicates a peer host (FailNet) or
// is an application error.
func (co *coordinator) gather(phase string, each func(host string, f *frame)) error {
	for _, host := range co.hostNames() {
		l := co.links[host]
		f, err := co.waitReply(l)
		if err != nil {
			// waitReply already marked the casualty dead — l itself, or
			// another host whose death strands the gather.
			return fmt.Errorf("dist: %s: %w", phase, err)
		}
		if f.Kind == kindFail {
			if f.FailNet {
				if tl := co.links[f.FailHost]; tl != nil && f.FailHost != host {
					co.markDead(tl, fmt.Errorf("%s", f.Err))
				}
				return fmt.Errorf("dist: worker %s %s: %s", host, phase, f.Err)
			}
			return fmt.Errorf("dist: worker %s: %s", host, f.Err)
		}
		if each != nil {
			each(host, f)
		}
	}
	return nil
}

func (co *coordinator) runUOW(idx int, work any) error {
	var raw []byte
	if r, ok := work.(RawUOW); ok {
		// Pre-encoded descriptor (a job-server relay): pass through
		// verbatim — the coordinator process need not know the type.
		raw = r
	} else if work != nil {
		var err error
		raw, err = encodeAny(work)
		if err != nil {
			return fmt.Errorf("dist: encoding unit of work: %w", err)
		}
	}

	// Phase 1: Init everywhere; gather and resolve buffer declarations.
	if err := co.broadcast(&frame{Kind: kindInitUOW, UOW: &uowMsg{Index: idx, Work: raw}}); err != nil {
		return err
	}
	decls := map[string]exec.BufferDecl{}
	err := co.gather("init", func(host string, f *frame) {
		for stream, d := range f.Decls {
			cur := decls[stream]
			cur.Merge(d[0], d[1])
			decls[stream] = cur
		}
	})
	if err != nil {
		return err
	}
	def := exec.OrDefault(co.opts.BufferBytes, exec.DefaultBufferBytes)
	sizes := map[string]int{}
	for _, sp := range co.agg.streams {
		sizes[sp] = decls[sp].Resolve(def)
	}

	// Phase 2: Process everywhere.
	if err := co.broadcast(&frame{Kind: kindBeginProcess, Sizes: sizes}); err != nil {
		return err
	}
	if err := co.gather("process", nil); err != nil {
		return err
	}

	// Phase 3: Finalize everywhere. Stats fragments are committed only
	// once the whole unit of work succeeded — a retried unit must not
	// double-count a failed attempt's traffic.
	if err := co.broadcast(&frame{Kind: kindFinalize}); err != nil {
		return err
	}
	var frags []*wireStats
	err = co.gather("finalize", func(host string, f *frame) {
		frags = append(frags, f.Stats)
	})
	if err != nil {
		return err
	}
	for _, ws := range frags {
		co.agg.merge(ws)
	}
	return nil
}

// deadHosts lists the hosts marked dead, sorted.
func (co *coordinator) deadHosts() []string {
	var out []string
	for host, l := range co.links {
		if l.dead {
			out = append(out, host)
		}
	}
	sort.Strings(out)
	return out
}

// recover transitions the run past the hosts in dead: survivors are aborted
// (and confirmed down via kindAbortDone, so their sessions are really over
// before re-setup), every link is torn down, the placement is replanned
// onto the survivors, and fresh sessions are set up. The caller then
// re-dispatches the failed unit of work.
func (co *coordinator) recover(dead []string) error {
	co.m.hostsLost.Add(int64(len(dead)))

	abort := &frame{Kind: kindAbort, Err: "host(s) lost: " + strings.Join(dead, ",")}
	for _, host := range co.hostNames() {
		l := co.links[host]
		if l.dead {
			continue
		}
		if err := l.c.send(abort); err != nil {
			co.markDead(l, err)
		}
	}
	// Await each survivor's AbortDone, discarding stale phase replies that
	// were already in flight when the abort went out. A survivor that
	// cannot confirm within the liveness budget is dead too.
	for _, host := range co.hostNames() {
		l := co.links[host]
		if l.dead {
			continue
		}
	drain:
		for {
			f, err := co.waitReply(l)
			if err != nil {
				if co.ctx.Err() != nil {
					return fmt.Errorf("dist: recovery cancelled: %w", co.ctx.Err())
				}
				if l.dead {
					break drain // this survivor died too (already marked)
				}
				continue // a different host died; keep draining this one
			}
			if f.Kind == kindAbortDone {
				break drain
			}
		}
	}

	// Tear every link down; survivors get fresh sessions below.
	survivors := make(map[string]string, len(co.addrs))
	deadSet := make(map[string]bool, len(co.links))
	for host, l := range co.links {
		if l.dead {
			l.sever()
			deadSet[host] = true
		} else {
			l.shutdown()
			survivors[host] = co.addrs[host]
		}
	}
	co.links = make(map[string]*hostLink, len(survivors))
	if len(survivors) == 0 {
		return fmt.Errorf("dist: no surviving hosts")
	}

	replanned, err := elastic.ReplanDead(co.placement, deadSet)
	if err != nil {
		return err
	}
	co.addrs = survivors
	co.placement = replanned
	return co.connectAll()
}

// shutdownAll ends a successful run: polite kindShutdown to every worker,
// confirmation that each session is unregistered, then link teardown. The
// confirmation matters for latency, not correctness — without it a
// back-to-back Run's Setup races the old session's teardown, gets refused
// busy, and sits out a retry backoff that dwarfs the actual work.
func (co *coordinator) shutdownAll() {
	for _, l := range co.links {
		_ = l.c.send(&frame{Kind: kindShutdown})
	}
	for _, host := range co.hostNames() {
		l := co.links[host]
		if l.dead {
			continue
		}
	confirm:
		for {
			f, err := co.waitReply(l)
			switch {
			case err != nil:
				break confirm // best-effort: the run already succeeded
			case f.Kind == kindShutdownDone:
				break confirm
			}
		}
	}
	for _, l := range co.links {
		l.shutdown()
	}
	co.links = map[string]*hostLink{}
	co.shut = true
}

// teardown runs on every exit path. Unless the run already shut down
// gracefully, it broadcasts a best-effort abort — the bugfix for workers
// previously left blocked mid-phase when the coordinator bailed out early —
// and closes every link.
func (co *coordinator) teardown() {
	if co.shut {
		return
	}
	abort := &frame{Kind: kindAbort, Err: "coordinator aborted the run"}
	for _, l := range co.links {
		if !l.dead {
			_ = l.c.send(abort)
		}
	}
	for _, l := range co.links {
		if l.dead {
			l.sever()
		} else {
			l.shutdown()
		}
	}
	co.links = map[string]*hostLink{}
}

// publishCoordGauges reflects the running aggregate stream totals into the
// coordinator's registry after each unit of work.
func publishCoordGauges(o *obs.Observer, agg *aggStats) {
	reg := o.Registry()
	if reg == nil {
		return
	}
	for _, name := range agg.streams {
		ss := agg.s.Streams[name]
		if ss == nil {
			continue
		}
		reg.Gauge("coord.stream." + name + ".buffers").Set(ss.Buffers)
		reg.Gauge("coord.stream." + name + ".bytes").Set(ss.Bytes)
		reg.Gauge("coord.stream." + name + ".acks").Set(ss.Acks)
	}
}

// aggStats accumulates workers' stats fragments into a core.Stats.
type aggStats struct {
	s       *core.Stats
	streams []string
}

func newAggStats(spec GraphSpec, filters []string) *aggStats {
	a := &aggStats{s: exec.NewStats(filters, spec.Streams)}
	for _, sp := range spec.Streams {
		a.streams = append(a.streams, sp.Name)
	}
	return a
}

func (a *aggStats) merge(ws *wireStats) {
	if ws == nil {
		return
	}
	for stream, n := range ws.StreamBuffers {
		a.s.Streams[stream].Buffers += n
	}
	for stream, n := range ws.StreamBytes {
		a.s.Streams[stream].Bytes += n
	}
	for stream, n := range ws.StreamAcks {
		a.s.Streams[stream].Acks += n
	}
	for stream, per := range ws.PerTarget {
		for host, n := range per {
			a.s.Streams[stream].PerTargetHost[host] += n
		}
	}
	for filter, busy := range ws.FilterBusy {
		fs := a.s.Filters[filter]
		fs.BusySeconds = append(fs.BusySeconds, busy...)
		fs.Copies = len(fs.BusySeconds)
	}
}

// Elasticity on the distributed engine. Copy-set membership changes apply
// at work-cycle boundaries only: the coordinator gracefully ends every
// worker session and re-runs setup with the mutated placement — the same
// session restart fault recovery already performs, minus the casualties.
// Transparent-copy semantics make this legal: per-UOW filter state is
// rebuilt by Init, so spawned and retired copies need no state hand-off.

// rescaleSessions applies the scale steps due at boundary uow. Steps whose
// target host has no live worker (it died mid-run and was replanned away)
// are dropped — a dead host cannot take copies. When the effective
// placement actually changes, every worker session is gracefully shut down
// and set up again with the new plan, and the elastic metrics and scale
// trace events are published on the coordinator's observer.
func (co *coordinator) rescaleSessions(due []elastic.ScaleStep, uow int) error {
	live := make([]elastic.ScaleStep, 0, len(due))
	for _, s := range due {
		if s.Copies >= 1 {
			if _, ok := co.addrs[s.Host]; !ok {
				continue
			}
		}
		live = append(live, s)
	}
	if len(live) == 0 {
		return nil
	}
	old := co.placement
	next := elastic.Apply(old, live)
	if slices.Equal(old, next) {
		return nil
	}
	co.shutdownAll()
	co.shut = false
	co.placement = next
	elastic.RecordScaleDiff(co.o, old, next, uow, nil)
	return co.connectAll()
}
