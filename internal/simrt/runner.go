// Package simrt executes a core filter graph on a simulated heterogeneous
// cluster in virtual time. It is the second engine for internal/core: the
// same Graph, Placement, Filter implementations, and — crucially — the very
// same copy-set runtime (internal/exec) and Policy objects (RR, WRR, DD)
// drive buffer distribution, so scheduling behaviour measured here is the
// behaviour of the production code, not a re-implementation.
//
// Filters run as simulated processes. Ctx.Compute charges the host's
// processor-sharing CPU (where background jobs compete at equal priority),
// Ctx.ChargeDisk charges the host's disks, buffer writes occupy sender and
// receiver NICs for their wire time, and demand-driven acknowledgments are
// real small messages that queue on the same NICs — reproducing the paper's
// observation that DD ack traffic is costly on slow networks.
package simrt

import (
	"fmt"

	"datacutter/internal/cluster"
	"datacutter/internal/core"
	"datacutter/internal/elastic"
	"datacutter/internal/exec"
	"datacutter/internal/obs"
	"datacutter/internal/sim"
)

// Options configures a simulated run.
type Options struct {
	// Policy is the default writer policy (RoundRobin if nil);
	// StreamPolicy overrides per stream.
	Policy       core.Policy
	StreamPolicy map[string]core.Policy
	// QueueCap is the per-copy-set queue capacity in buffers (default 8).
	QueueCap int
	// BufferBytes is the default stream buffer size (default 256 KiB),
	// clamped by DeclareBuffer bounds.
	BufferBytes int
	// AckBytes is the size of a DD acknowledgment message (default 64).
	AckBytes int
	// PrefetchDepth is the number of disk reads a filter copy keeps in
	// flight (modeling asynchronous I/O and OS readahead): ChargeDisk
	// returns once the read is issued and only blocks when the disk falls
	// `PrefetchDepth` requests behind. 1 makes reads fully synchronous.
	// Default 4.
	PrefetchDepth int
	// UOWs lists the unit-of-work descriptors (one nil UOW if empty).
	UOWs []any
	// ScaleSchedule lists seeded copy-set membership changes applied at
	// work-cycle boundaries (elastic.ScaleStep.BeforeUOW >= 1). Surviving
	// instances persist across the change; grown slots spawn fresh copies.
	ScaleSchedule []elastic.ScaleStep
	// Obs attaches the observability subsystem (see internal/obs). Events
	// are stamped in virtual seconds — the kernel's clock, not wall time —
	// so an exported trace shows the simulated timeline. Nil disables.
	Obs *obs.Observer
}

// validate rejects negative option values that would otherwise silently
// fall through to the defaults (the sizes check is shared with core).
func (o *Options) validate() error {
	if err := exec.ValidateSizes("simrt", o.QueueCap, o.BufferBytes); err != nil {
		return err
	}
	if o.AckBytes < 0 {
		return fmt.Errorf("simrt: Options.AckBytes must be >= 0 (0 selects the default of 64), got %d", o.AckBytes)
	}
	if o.PrefetchDepth < 0 {
		return fmt.Errorf("simrt: Options.PrefetchDepth must be >= 0 (0 selects the default of 4), got %d", o.PrefetchDepth)
	}
	return nil
}

// Runner executes a graph on a cluster in virtual time. The copy sets,
// stream wiring, filter Ctx and phase runner are the shared copy-set
// runtime (internal/exec); Runner is its virtual-time engine: the kernel's
// clock, sim processes, sim.Chan queues, NIC transfers for buffers and
// acknowledgments, and the CPU and disk models behind Compute and
// ChargeDisk.
type Runner struct {
	cl   *cluster.Cluster
	opts Options
	rt   *exec.Runtime
}

// NewRunner validates the graph/placement (every placed host must exist in
// the cluster) and instantiates filter copies. Instances persist across
// units of work; a scale schedule rescales them in place at work-cycle
// boundaries.
func NewRunner(g *core.Graph, pl *core.Placement, cl *cluster.Cluster, opts Options) (*Runner, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(g); err != nil {
		return nil, err
	}
	for _, h := range pl.Hosts() {
		if cl.Host(h) == nil {
			return nil, fmt.Errorf("simrt: placement uses host %q not present in cluster", h)
		}
	}
	r := &Runner{cl: cl, opts: opts}
	rt, err := exec.New(exec.Config{
		Prefix: "simrt", Filters: g.Filters(), Streams: g.Streams(), Placement: pl.Entries(g),
		Build:          func(name, _ string) (core.Filter, error) { return g.Factory(name)(), nil },
		Obs:            opts.Obs,
		Policies:       exec.PolicyConfig{Default: opts.Policy, PerStream: opts.StreamPolicy},
		QueueCap:       opts.QueueCap,
		BufferBytes:    opts.BufferBytes,
		StreamCounters: true,
	}, (*engine)(r))
	if err != nil {
		return nil, err
	}
	r.rt = rt
	return r, nil
}

// Instances returns the filter instances for a filter in global copy order.
func (r *Runner) Instances(name string) []core.Filter { return r.rt.Instances(name) }

// Stats returns accumulated statistics (virtual-time seconds).
func (r *Runner) Stats() *core.Stats { return r.rt.Stats() }

// Run executes all units of work sequentially in virtual time. Scale steps
// must name hosts of the cluster: a grown copy set must land on modeled
// hardware.
func (r *Runner) Run() (*core.Stats, error) {
	// This engine's time domain is the kernel's virtual clock: exported
	// traces show simulated seconds, directly comparable to Stats.
	r.opts.Obs.SetClock(obs.ClockFunc((*engine)(r).Now))
	return r.rt.Run(r.opts.UOWs, r.opts.ScaleSchedule, func(h string) bool { return r.cl.Host(h) != nil })
}

// engine is the Runner seen as the runtime's exec.Engine.
type engine Runner

// Now implements exec.Engine: the kernel's virtual clock.
func (r *engine) Now() float64 { return float64(r.cl.Kernel().Now()) }

// Go implements exec.Engine: one sim process per copy and phase, named for
// deadlock reports.
func (r *engine) Go(c *exec.CopyCtx, phase string, body func()) {
	name := fmt.Sprintf("%s-%s#%d", phase, c.Name(), c.CopyIndex())
	if phase == exec.PhaseProcess {
		name = fmt.Sprintf("%s#%d@%s", c.Name(), c.CopyIndex(), c.Host())
	}
	env := c.Env().(*simEnv)
	r.cl.Kernel().Spawn(name, func(p *sim.Proc) {
		env.p = p
		body()
	})
}

// Wait implements exec.Engine: run the kernel until every process ends (a
// deadlock or kernel failure is the error).
func (r *engine) Wait() error { return r.cl.Kernel().Run() }

// NewQueue implements exec.Engine.
func (r *engine) NewQueue(st *exec.Stream, host string, capacity int) exec.Queue {
	return simQueue{sim.NewChan[exec.Delivery](r.cl.Kernel(), st.Spec.Name+"@"+host, capacity)}
}

// Port implements exec.Engine: a buffer occupies sender and receiver NICs
// for its wire time, then is enqueued on the target copy set's queue
// (blocking there is consumer backpressure, traced as a write stall).
func (r *engine) Port(c *exec.CopyCtx, out *exec.Output) exec.Port {
	return exec.PortFunc(func(idx int, b core.Buffer, ackEvery int) error {
		p, target := c.Env().(*simEnv).p, out.Stream.Hosts[idx]
		t0 := p.Now()
		r.cl.Transfer(p, c.Host(), target, b.Size)
		c.Stall.Net += float64(p.Now() - t0)
		if o := r.opts.Obs; o != nil {
			o.Emit(obs.Event{Kind: obs.KindSend, Filter: c.Name(), Copy: c.CopyIndex(), Host: c.Host(), Stream: out.Stream.Spec.Name, Target: target, Bytes: b.Size, UOW: c.UOW()})
		}
		return out.Deliver(idx, b, ackEvery)
	})
}

// NewAcks implements exec.Engine. The kernel is cooperative, so
// acknowledgments land in a plain AckSeq (appended by the ack process after
// its wire transfer, drained by the StreamWriter at the next pick).
func (r *engine) NewAcks(int) exec.AckSource { return &exec.AckSeq{} }

// SendAck implements exec.Engine: an acknowledgment is a real small
// message that occupies consumer and producer NICs before the producer's
// window drops (paper §2), so DD ack traffic is costly on slow networks.
func (r *engine) SendAck(c *exec.CopyCtx, _ string, to exec.AckTo, n int) {
	from, ab := c.Host(), exec.OrDefault(r.opts.AckBytes, 64)
	r.cl.Kernel().Spawn("ack", func(p *sim.Proc) {
		r.cl.Transfer(p, from, to.Host, ab)
		to.Sink.(*exec.AckSeq).Ack(to.Target, n)
	})
}

// EndOfWork implements exec.Engine: the whole cluster is simulated here.
func (r *engine) EndOfWork(*exec.CopyCtx, *exec.Stream) {}

// Env implements exec.Engine.
func (r *engine) Env(c *exec.CopyCtx) exec.Env { return &simEnv{r: r, c: c} }

// simQueue is a copy set's queue in virtual time. A block is traced after
// the fact as a back-stamped stall span.
type simQueue struct{ ch *sim.Chan[exec.Delivery] }

func (q simQueue) Send(c *exec.CopyCtx, stream string, d exec.Delivery) error {
	p := c.Env().(*simEnv).p
	t0 := p.Now()
	q.ch.Send(p, d)
	c.StallSpan(stream, "write", float64(t0), float64(p.Now()))
	return nil
}

func (q simQueue) Recv(c *exec.CopyCtx, stream string) (exec.Delivery, bool, error) {
	p := c.Env().(*simEnv).p
	t0 := p.Now()
	d, ok := q.ch.Recv(p)
	c.StallSpan(stream, "read", float64(t0), float64(p.Now()))
	return d, ok, nil
}

func (q simQueue) Close()   { q.ch.Close() }
func (q simQueue) Len() int { return q.ch.Len() }

// simEnv is a copy's simulated execution environment: the sim process it
// currently runs as, the host CPU behind Compute, and the asynchronous disk
// reads behind ChargeDisk.
type simEnv struct {
	r *engine
	c *exec.CopyCtx
	p *sim.Proc

	diskPending     *sim.Chan[struct{}]
	diskOutstanding int
}

func (e *simEnv) Compute(refSeconds float64) {
	if refSeconds <= 0 {
		return
	}
	e.r.cl.Host(e.c.Host()).CPU.Compute(e.p, refSeconds)
}

// ChargeDisk issues a disk read with asynchronous prefetch: up to
// Options.PrefetchDepth reads stay in flight while the filter computes,
// modeling the overlapped I/O both real systems rely on. Waiting for a
// slot counts as read-blocked time. All reads drain before the copy
// reaches end-of-work (Drain).
func (e *simEnv) ChargeDisk(disk int, bytes int) {
	depth := exec.OrDefault(e.r.opts.PrefetchDepth, 4)
	host := e.r.cl.Host(e.c.Host())
	if depth <= 1 {
		host.ReadDisk(e.p, disk, bytes)
		return
	}
	if e.diskPending == nil {
		e.diskPending = sim.NewChan[struct{}](e.p.Kernel(), "prefetch@"+e.c.Host(), depth)
	}
	for e.diskOutstanding >= depth {
		t0 := e.p.Now()
		e.diskPending.Recv(e.p)
		e.diskOutstanding--
		e.c.Stall.Read += float64(e.p.Now() - t0)
	}
	done := e.diskPending
	e.p.Kernel().Spawn("prefetch-io", func(p *sim.Proc) {
		host.ReadDisk(p, disk, bytes)
		done.Send(p, struct{}{})
	})
	e.diskOutstanding++
}

// Drain waits for in-flight prefetch reads (end of Process).
func (e *simEnv) Drain() {
	for e.diskOutstanding > 0 {
		t0 := e.p.Now()
		e.diskPending.Recv(e.p)
		e.diskOutstanding--
		e.c.Stall.Read += float64(e.p.Now() - t0)
	}
}
