package core

import (
	"sync"
	"time"

	"datacutter/internal/elastic"
	"datacutter/internal/exec"
	"datacutter/internal/obs"
)

// Options configures a run on the real (goroutine) engine. The zero value
// is usable: RR policy, queue capacity 8, 256 KiB buffers, one unit of work.
type Options struct {
	// Policy is the default writer policy for every stream (RoundRobin if
	// nil).
	Policy Policy
	// StreamPolicy overrides the policy for individual streams by name.
	StreamPolicy map[string]Policy
	// QueueCap is the per-copy-set queue capacity in buffers (default 8).
	QueueCap int
	// BufferBytes is the default stream buffer size the runtime proposes;
	// it is clamped by the filters' DeclareBuffer bounds (default 256 KiB).
	BufferBytes int
	// UOWs describes the units of work; each entry is passed to the
	// filters via Ctx.Work. Nil means a single unit of work with a nil
	// descriptor.
	UOWs []any
	// Obs attaches the observability subsystem: buffer-lifecycle trace
	// events and live metrics (see internal/obs). Nil disables
	// instrumentation at near-zero hot-path cost.
	Obs *obs.Observer
	// ScaleSchedule seeds deterministic copy-set membership changes at
	// work-cycle boundaries: before unit of work BeforeUOW, the (Filter,
	// Host) entry's copy count becomes Copies (see elastic.ScaleStep).
	// Copies are spawned and retired between units of work — the paper's
	// work-cycle model rebuilds per-UOW state in Init, so membership can
	// change at the boundary without any state hand-off.
	ScaleSchedule []elastic.ScaleStep
	// Elastic enables the live autoscale controller: it samples copy-set
	// queue depth, DD ack-window occupancy, and p95 filter service time
	// every Interval, reweights WRR streams from observed throughput
	// mid-cycle, and applies copy-count changes at the next work-cycle
	// boundary, bounded by the config's Min/MaxCopies and Budget.
	Elastic *elastic.Config
	// StealWork lets a consumer copy with an empty queue opportunistically
	// drain sibling copy sets' queues on the same stream. Transparent
	// copies make any copy interchangeable, and deliveries carry their
	// producer-side ack path, so stolen buffers acknowledge the correct
	// window. Off by default: it trades strict per-host delivery placement
	// for latency, so replay-exact per-host accounting no longer matches
	// the writer's picks.
	StealWork bool
}

// Validate rejects option values that would otherwise be silently coerced
// to defaults. Zero means "use the default"; negative values are always a
// caller bug.
func (o *Options) Validate() error { return exec.ValidateSizes("core", o.QueueCap, o.BufferBytes) }

// Runner executes a Graph under a Placement on the real engine: every
// transparent copy is a goroutine, every copy set shares one Go-channel
// queue (demand-based balance within a host), and writer policies
// distribute buffers across copy sets. Everything engine-neutral — copies,
// stream wiring, the filter Ctx, the phase runner — is the shared copy-set
// runtime (internal/exec); this file is the wall clock, queue and goroutine
// adapter plus work stealing, and elastic.go adds the live autoscale
// controller.
type Runner struct {
	opts Options
	rt   *exec.Runtime

	// pending holds copy-count changes the autoscale controller proposed
	// mid-cycle, applied at the next work-cycle boundary (see elastic.go).
	pendMu  sync.Mutex
	pending []elastic.Decision
}

// NewRunner validates the graph and placement and instantiates one filter
// instance per transparent copy. Instances persist across units of work, as
// in the paper's work-cycle model.
func NewRunner(g *Graph, pl *Placement, opts Options) (*Runner, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(g); err != nil {
		return nil, err
	}
	r := &Runner{opts: opts}
	rt, err := exec.New(exec.Config{
		Prefix: "core", Filters: g.Filters(), Streams: g.Streams(), Placement: pl.Entries(g),
		Build:          func(name, _ string) (Filter, error) { return g.Factory(name)(), nil },
		AttachObserver: true,
		Obs:            opts.Obs,
		Policies:       exec.PolicyConfig{Default: opts.Policy, PerStream: opts.StreamPolicy},
		QueueCap:       opts.QueueCap,
		BufferBytes:    opts.BufferBytes,
		StreamCounters: true,
		ServiceTimes:   opts.Elastic != nil,
	}, &engine{steal: opts.StealWork, epoch: time.Now()})
	if err != nil {
		return nil, err
	}
	r.rt = rt
	if opts.Elastic != nil {
		rt.Propose = r.drainPending
		rt.DuringProcess = r.startController
	}
	return r, nil
}

// Instances returns the filter instances for a filter name in global copy
// order, so callers can retrieve results a sink filter accumulated.
func (r *Runner) Instances(name string) []Filter { return r.rt.Instances(name) }

// Stats returns the accumulated statistics. Valid after Run.
func (r *Runner) Stats() *Stats { return r.rt.Stats() }

// Run executes every unit of work sequentially and returns the accumulated
// stats. The first filter error aborts the run. Between units of work the
// copy sets are rescaled in place to the scale schedule and to any
// copy-count changes the live autoscale controller proposed during the
// previous cycle.
func (r *Runner) Run() (*Stats, error) {
	// The real engine's time domain is wall seconds since the run started.
	r.opts.Obs.SetClock(obs.NewWallClock())
	return r.rt.Run(r.opts.UOWs, r.opts.ScaleSchedule, nil)
}

// engine is the real engine's exec.Engine: wall clock, one goroutine per
// copy and phase, Go-channel queues, in-process acknowledgment channels.
type engine struct {
	exec.Goroutines
	steal bool
	epoch time.Time
}

// Now implements exec.Engine: wall seconds since the runner was built.
func (e *engine) Now() float64 { return time.Since(e.epoch).Seconds() }

// NewQueue implements exec.Engine: a buffered Go channel per copy set,
// read with work stealing when Options.StealWork is set.
func (e *engine) NewQueue(st *exec.Stream, _ string, capacity int) exec.Queue {
	q := make(exec.ChanQueue, capacity)
	if e.steal {
		return stealQueue{ChanQueue: q, st: st}
	}
	return q
}

// Port implements exec.Engine: every copy set is in this process, so picks
// go straight into the target queue.
func (e *engine) Port(*exec.CopyCtx, *exec.Output) exec.Port { return nil }

// NewAcks implements exec.Engine. Sized by exec.AckCap, a consumer's ack
// send can never block: at most (queue capacity + copies) buffers per
// target can be unacknowledged from one producer at once.
func (e *engine) NewAcks(ackCap int) exec.AckSource { return exec.NewAckChan(ackCap) }

// SendAck implements exec.Engine.
func (e *engine) SendAck(_ *exec.CopyCtx, _ string, to exec.AckTo, n int) {
	to.Sink.(exec.AckChan).Ack(to.Target, n)
}

// EndOfWork implements exec.Engine: there are no remote copy sets.
func (e *engine) EndOfWork(*exec.CopyCtx, *exec.Stream) {}

// Env implements exec.Engine: Compute and ChargeDisk are no-ops, the work
// being real.
func (e *engine) Env(*exec.CopyCtx) exec.Env { return nil }
