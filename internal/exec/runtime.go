package exec

import (
	"errors"
	"fmt"
	"sync"

	"datacutter/internal/elastic"
	"datacutter/internal/obs"
)

// Runtime defaults shared by every engine's options.
const (
	DefaultQueueCap    = 8         // per-copy-set queue capacity, in buffers
	DefaultBufferBytes = 256 << 10 // stream buffer size proposed before DeclareBuffer clamping
)

// OrDefault returns v, or def when v is zero (the options convention: zero
// selects the default).
func OrDefault[T ~int | ~int64](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// ValidateSizes rejects negative queue capacities and buffer sizes, which
// would otherwise be silently coerced to the defaults. prefix names the
// engine in the error.
func ValidateSizes(prefix string, queueCap, bufferBytes int) error {
	if queueCap < 0 {
		return fmt.Errorf("%s: Options.QueueCap must be >= 0 (0 selects the default of %d), got %d", prefix, DefaultQueueCap, queueCap)
	}
	if bufferBytes < 0 {
		return fmt.Errorf("%s: Options.BufferBytes must be >= 0 (0 selects the default of %d KiB), got %d", prefix, DefaultBufferBytes>>10, bufferBytes)
	}
	return nil
}

// Phase names passed to Engine.Go.
const (
	PhaseInit     = "init"
	PhaseProcess  = "process"
	PhaseFinalize = "finalize"
)

// Engine is what a concrete engine plugs into the runtime.
type Engine interface {
	// Now returns the engine clock in seconds: wall time on the real
	// engines, the kernel's virtual time on the simulated one.
	Now() float64
	// Go starts one copy's phase body; Wait blocks until every body started
	// since the previous Wait has returned, reporting engine-level failures
	// (a simulated deadlock).
	Go(c *CopyCtx, phase string, body func())
	Wait() error
	// NewQueue returns the input queue of st's consumer copy set on host,
	// holding capacity buffers (Config.QueueCap).
	NewQueue(st *Stream, host string, capacity int) Queue
	// Port returns the transport behind one producer copy's output, or nil
	// when every pick goes straight into a local queue (Output.Deliver).
	Port(c *CopyCtx, out *Output) Port
	// NewAcks returns the acknowledgment source of an output whose policy
	// wants acks; ackCap (AckCap) bounds the acknowledgments one producer
	// can have pending, so a channel that size never blocks a consumer.
	// Local deliveries carry the source back to the consumer as AckTo.Sink.
	NewAcks(ackCap int) AckSource
	// SendAck carries one coalesced acknowledgment of n buffers from
	// consumer copy c back to the producer window addressed by to.
	SendAck(c *CopyCtx, stream string, to AckTo, n int)
	// EndOfWork tells consumer copy sets this runtime does not serve that
	// producer copy c wrote its last buffer on st. Local copy sets are
	// handled by the runtime (Stream.ProducerDone).
	EndOfWork(c *CopyCtx, st *Stream)
	// Env returns the copy's execution environment behind Compute and
	// ChargeDisk, or nil when both are no-ops.
	Env(c *CopyCtx) Env
}

// Env is a copy's execution environment on an engine that models time
// (the simulator): Compute and ChargeDisk charge virtual resources, and
// Drain waits out asynchronous work before the copy reaches end-of-work.
// Time spent waiting is added to the copy's CopyCtx.Stall.Read.
type Env interface {
	Compute(refSeconds float64)
	ChargeDisk(disk, bytes int)
	Drain()
}

// Queue is a consumer copy set's input queue, shared by the copies on its
// host (demand-based balance within a host).
type Queue interface {
	// Send enqueues d, blocking while the queue is full; it returns
	// ErrCancelled when the run is torn down first.
	Send(c *CopyCtx, stream string, d Delivery) error
	// Recv dequeues the next delivery, blocking while the queue is empty.
	// ok is false at end-of-work; err is ErrCancelled when the run is torn
	// down first.
	Recv(c *CopyCtx, stream string) (d Delivery, ok bool, err error)
	Close()
	Len() int
}

// Delivery is one buffer in flight toward a consumer copy set.
type Delivery struct {
	Buf Buffer
	// AckEvery is the producer policy's acknowledgment contract (0: no
	// acks; k: acknowledge every k-th buffer) and Ack addresses the window.
	AckEvery int
	Ack      AckTo
	// Release, when set, recycles memory the payload aliases; the runtime
	// calls it once the consuming copy is done with the buffer (its next
	// Read on the stream).
	Release func()
}

// AckTo addresses the producer-side window a consumer acknowledges.
type AckTo struct {
	Sink   AckSource // the producer's ack source, when it is in this runtime
	Host   string    // producer host
	Copy   int       // producer global copy index
	Target int       // target index the producer picked
}

// Config describes one run to the runtime.
type Config struct {
	// Prefix names the engine in errors, panics and metric names ("core",
	// "simrt", "dist").
	Prefix string
	// Filters lists filter names in graph order, Streams the streams in
	// graph order, Placement the initial copy sets in placement order.
	Filters   []string
	Streams   []StreamSpec
	Placement []elastic.Entry
	// Build constructs one filter copy placed on host. With AttachObserver
	// the runtime then hands Obs to copies implementing ObserverSetter.
	Build          func(filter, host string) (Filter, error)
	AttachObserver bool
	// Local restricts the runtime to the copy sets on one host (a dist
	// worker); empty serves every host.
	Local       string
	Obs         *obs.Observer
	Policies    PolicyConfig
	QueueCap    int // 0 selects DefaultQueueCap
	BufferBytes int // 0 selects DefaultBufferBytes
	// StreamCounters publishes <Prefix>.stream.<S>.{buffers,bytes,acks};
	// ServiceTimes samples <Prefix>.filter.<F>.service_seconds between
	// reads (the autoscale controller's p95 signal).
	StreamCounters bool
	ServiceTimes   bool
}

// Runtime runs a graph's copy sets on one engine.
type Runtime struct {
	Config
	eng       Engine
	placement []elastic.Entry
	copies    map[string][]*Copy
	stats     *Stats

	// Propose, when set, returns extra scale steps due at a work-cycle
	// boundary (the live autoscale controller's) and the reason to record
	// for each changed copy set. DuringProcess, when set, runs alongside
	// each Process phase until the returned stop is called.
	Propose       func(uow int) ([]elastic.ScaleStep, func(filter, host string) string)
	DuringProcess func(u *UOW) (stop func())
}

// Copy is one transparent copy of a filter.
type Copy struct {
	Filter Filter // nil for copies on hosts the runtime does not serve
	Name   string
	Host   string
	Index  int // global copy index in [0, Total)
	Total  int
}

// New instantiates every served copy of the placement.
func New(cfg Config, eng Engine) (*Runtime, error) {
	cfg.QueueCap = OrDefault(cfg.QueueCap, DefaultQueueCap)
	cfg.BufferBytes = OrDefault(cfg.BufferBytes, DefaultBufferBytes)
	rt := &Runtime{Config: cfg, eng: eng, copies: make(map[string][]*Copy)}
	rt.stats = NewStats(cfg.Filters, cfg.Streams)
	if err := rt.place(cfg.Placement); err != nil {
		return nil, err
	}
	return rt, nil
}

// Stats returns the accumulated statistics.
func (rt *Runtime) Stats() *Stats { return rt.stats }

// ResetStats starts a fresh statistics window (dist reports each unit of
// work separately).
func (rt *Runtime) ResetStats() {
	rt.stats = NewStats(rt.Filters, rt.Streams)
	for name, cs := range rt.copies {
		rt.stats.Filters[name].grow(len(cs))
	}
}

// Copies returns a filter's copies in global copy order.
func (rt *Runtime) Copies(name string) []*Copy { return rt.copies[name] }

// Instances returns the filter instances this runtime runs for a filter,
// in global copy order.
func (rt *Runtime) Instances(name string) []Filter {
	var out []Filter
	for _, cp := range rt.copies[name] {
		if cp.Filter != nil {
			out = append(out, cp.Filter)
		}
	}
	return out
}

func (rt *Runtime) serves(host string) bool { return rt.Local == "" || host == rt.Local }

// place makes the copies match a placement. Each (filter, host) slot keeps
// its existing instances (instances persist across units of work), grown
// slots build fresh ones and shrunk slots retire from the end. Global copy
// indices and totals follow placement order, so filters a change does not
// touch keep their instances and indices exactly. Per-copy stats series
// grow and never shrink.
func (rt *Runtime) place(entries []elastic.Entry) error {
	for _, name := range rt.Filters {
		pool := make(map[string][]*Copy)
		for _, cp := range rt.copies[name] {
			pool[cp.Host] = append(pool[cp.Host], cp)
		}
		var next []*Copy
		for _, e := range entries {
			if e.Filter != name {
				continue
			}
			for i := 0; i < e.Copies; i++ {
				var cp *Copy
				if old := pool[e.Host]; len(old) > 0 {
					cp, pool[e.Host] = old[0], old[1:]
				} else {
					cp = &Copy{Name: name, Host: e.Host}
					if rt.serves(e.Host) {
						f, err := rt.Build(name, e.Host)
						if err != nil {
							return err
						}
						if s, ok := f.(ObserverSetter); ok && rt.AttachObserver {
							s.SetObserver(rt.Obs)
						}
						cp.Filter = f
					}
				}
				cp.Index = len(next)
				next = append(next, cp)
			}
		}
		for _, cp := range next {
			cp.Total = len(next)
		}
		rt.copies[name] = next
		rt.stats.Filters[name].grow(len(next))
	}
	rt.placement = append([]elastic.Entry(nil), entries...)
	return nil
}

// Run executes every unit of work in order (one nil unit when uows is
// empty) and returns the accumulated stats; the first error aborts the run.
// Before each unit the scale steps due at that boundary — the schedule's
// and any the Propose hook adds — rescale the copy sets in place.
func (rt *Runtime) Run(uows []any, schedule []elastic.ScaleStep, hostOK func(string) bool) (*Stats, error) {
	if len(uows) == 0 {
		uows = []any{nil}
	}
	if err := elastic.ValidateSchedule(rt.Filters, schedule, hostOK); err != nil {
		return rt.stats, fmt.Errorf("%s: %w", rt.Prefix, err)
	}
	start := rt.eng.Now()
	for i, work := range uows {
		due := elastic.StepsAt(schedule, i)
		var reason func(filter, host string) string
		if rt.Propose != nil {
			var extra []elastic.ScaleStep
			extra, reason = rt.Propose(i)
			due = append(due, extra...)
		}
		if len(due) > 0 {
			old, next := rt.placement, elastic.Apply(rt.placement, due)
			if err := rt.place(next); err != nil {
				return rt.stats, err
			}
			elastic.RecordScaleDiff(rt.Obs, old, next, i, reason)
		}
		t0 := rt.eng.Now()
		u, err := rt.NewUOW(i, work, NewAbort())
		if err == nil {
			err = u.Run()
		}
		if err != nil {
			return rt.stats, err
		}
		rt.stats.PerUOWSeconds = append(rt.stats.PerUOWSeconds, rt.eng.Now()-t0)
	}
	rt.stats.WallSeconds = rt.eng.Now() - start
	return rt.stats, nil
}

// Abort records a run's first failure and cancels everything waiting on
// Done.
type Abort struct {
	done chan struct{}
	mu   sync.Mutex
	err  error
}

// NewAbort returns an armed Abort.
func NewAbort() *Abort { return &Abort{done: make(chan struct{})} }

// Fail records err unless a failure is already recorded, reporting whether
// it was the first.
func (a *Abort) Fail(err error) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return false
	}
	a.err = err
	close(a.done)
	return true
}

// Err returns the first failure, or nil.
func (a *Abort) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Done is closed by the first failure.
func (a *Abort) Done() <-chan struct{} { return a.done }

// Goroutines is the Go/Wait half of Engine for the concurrent engines: one
// goroutine per copy and phase.
type Goroutines struct{ wg sync.WaitGroup }

// Go implements Engine.
func (g *Goroutines) Go(_ *CopyCtx, _ string, body func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		body()
	}()
}

// Wait implements Engine.
func (g *Goroutines) Wait() error {
	g.wg.Wait()
	return nil
}

// BufferDecl accumulates DeclareBuffer bounds: the largest minimum and the
// smallest positive maximum (0 = unbounded).
type BufferDecl struct{ Min, Max int }

// Merge folds one declaration in.
func (d *BufferDecl) Merge(minBytes, maxBytes int) {
	if minBytes > d.Min {
		d.Min = minBytes
	}
	if maxBytes > 0 && (d.Max == 0 || maxBytes < d.Max) {
		d.Max = maxBytes
	}
}

// Resolve clamps the proposed size def into the declared bounds.
func (d BufferDecl) Resolve(def int) int {
	if d.Min > 0 && def < d.Min {
		def = d.Min
	}
	if d.Max > 0 && def > d.Max {
		def = d.Max
	}
	return def
}

// safeCall invokes a filter callback, converting panics into errors so a
// buggy filter aborts the run instead of crashing the process.
func safeCall(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("filter panicked: %v", r)
		}
	}()
	return fn()
}

// phase runs one phase on every copy of the unit of work and returns its
// outcome: the first error, except that a cancellation symptom gives way to
// the root cause that triggered it.
func (u *UOW) phase(name string, call func(Filter, Ctx) error) error {
	for _, c := range u.ctxs {
		c := c
		u.rt.eng.Go(c, name, func() { u.runCopy(c, name, call) })
	}
	werr := u.rt.eng.Wait()
	u.mu.Lock()
	perr := u.perr
	u.perr = nil
	u.mu.Unlock()
	if werr != nil || errors.Is(perr, ErrCancelled) {
		if err := u.abort.Err(); err != nil {
			return err
		}
	}
	if werr != nil {
		return werr
	}
	if perr != nil {
		return perr
	}
	return u.abort.Err()
}

func (u *UOW) runCopy(c *CopyCtx, name string, call func(Filter, Ctx) error) {
	process := name == PhaseProcess
	if process {
		c.event(obs.KindProcessStart)
	}
	t0 := u.rt.eng.Now()
	err := safeCall(func() error { return call(c.cp.Filter, c) })
	if process && c.env != nil {
		c.env.Drain()
	}
	dt := u.rt.eng.Now() - t0
	fs, i := c.fs, c.cp.Index
	if process {
		c.event(obs.KindProcessEnd)
		fs.WallSeconds[i] += dt
		fs.BusySeconds[i] += dt - c.Stall.Read - c.Stall.Write - c.Stall.Net
		fs.ReadBlockedSeconds[i] += c.Stall.Read
		fs.WriteBlockedSeconds[i] += c.Stall.Write + c.Stall.Net
		c.Stall = Stall{}
		// End-of-work: this copy writes no more buffers.
		for _, out := range c.outs {
			out.Stream.ProducerDone()
			u.rt.eng.EndOfWork(c, out.Stream)
		}
	} else {
		// Init/Finalize work counts toward the filter's busy time.
		fs.BusySeconds[i] += dt
		fs.WallSeconds[i] += dt
	}
	if err == nil {
		return
	}
	if process {
		err = fmt.Errorf("%s: filter %s copy %d: %w", u.rt.Prefix, c.cp.Name, i, err)
	} else {
		err = fmt.Errorf("%s: filter %s copy %d (%s): %w", u.rt.Prefix, c.cp.Name, i, name, err)
	}
	u.mu.Lock()
	if u.perr == nil || (errors.Is(u.perr, ErrCancelled) && !errors.Is(err, ErrCancelled)) {
		u.perr = err
	}
	u.mu.Unlock()
	u.abort.Fail(err)
}
