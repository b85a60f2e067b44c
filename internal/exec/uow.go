package exec

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"datacutter/internal/obs"
)

// UOW is one unit of work's stream wiring and copy contexts.
type UOW struct {
	rt      *Runtime
	Index   int
	work    any
	abort   *Abort
	stats   *Stats
	streams map[string]*Stream
	order   []*Stream // graph order
	ctxs    []*CopyCtx
	acks    map[ackRef]AckSource

	mu   sync.Mutex
	perr error // the running phase's outcome
}

type ackRef struct {
	stream string
	copy   int
}

// Stream is one logical stream's per-unit-of-work state.
type Stream struct {
	Spec StreamSpec
	// Hosts and Copies describe the consumer copy sets in placement order
	// (the writers' target order); Queues holds each one's input queue, nil
	// where the runtime does not serve the host.
	Hosts   []string
	Copies  []int
	Queues  []Queue
	Counts  *Counts         // per-target deliveries, shared by producer copies
	Writers []*StreamWriter // every local producer copy's writer

	producers *Countdown // end-of-work: the last producer closes the queues
	mu        sync.Mutex
	decl      BufferDecl
	bytes     int

	// Live counters; nil unless StreamCounters and Obs are set.
	buffers, bytesCtr, acks *obs.Counter
}

// Queue returns the copy set's queue on host, or nil.
func (st *Stream) Queue(host string) Queue {
	for i, h := range st.Hosts {
		if h == host {
			return st.Queues[i]
		}
	}
	return nil
}

// ProducerDone records that one producer copy finished; the last one
// closes the stream's local queues.
func (st *Stream) ProducerDone() {
	if !st.producers.Done() {
		return
	}
	for i, q := range st.Queues {
		// A host listed twice shares one queue; close it once.
		if q != nil && !slices.Contains(st.Hosts[:i], st.Hosts[i]) {
			q.Close()
		}
	}
}

// Output is one producer copy's write path on one stream.
type Output struct {
	Stream *Stream
	writer *StreamWriter
	acks   AckSource
	c      *CopyCtx
}

// Stall accumulates a copy's blocked time in the current phase: reads,
// queue backpressure on writes, and transport time on writes (the
// simulator's NIC occupancy).
type Stall struct{ Read, Write, Net float64 }

// CopyCtx is the Ctx of one copy for one unit of work.
type CopyCtx struct {
	u     *UOW
	cp    *Copy
	fs    *FilterStats
	env   Env
	in    map[string]*input
	out   map[string]*Output
	outs  []*Output // graph order
	Stall Stall

	acks        *Coalescer[ackKey]
	readStallH  *obs.Histogram
	writeStallH *obs.Histogram
	svcH        *obs.Histogram // inter-read service time (ServiceTimes)
	svcLast     float64        // clock at the previous read; 0 before the first
}

type input struct {
	st      *Stream
	q       Queue
	release func() // pending release of the last delivered buffer
}

type ackKey struct {
	stream string
	to     AckTo
}

var _ Ctx = (*CopyCtx)(nil)

// NewUOW wires one unit of work: per-stream queues, counts and end-of-work
// countdowns, and per-copy contexts with one stream writer per output.
// abort carries the unit's first failure.
func (rt *Runtime) NewUOW(index int, work any, abort *Abort) (*UOW, error) {
	u := &UOW{rt: rt, Index: index, work: work, abort: abort, stats: rt.stats,
		streams: make(map[string]*Stream), acks: make(map[ackRef]AckSource)}
	reg := rt.Obs.Registry()
	for _, sp := range rt.Streams {
		st := &Stream{Spec: sp, producers: NewCountdown(len(rt.copies[sp.From]))}
		for _, e := range rt.placement {
			if e.Filter != sp.To {
				continue
			}
			q := st.Queue(e.Host)
			if q == nil && rt.serves(e.Host) {
				q = rt.eng.NewQueue(st, e.Host, rt.QueueCap)
			}
			st.Hosts = append(st.Hosts, e.Host)
			st.Copies = append(st.Copies, e.Copies)
			st.Queues = append(st.Queues, q)
		}
		st.Counts = NewCounts(len(st.Hosts))
		if reg != nil && rt.StreamCounters {
			pre := rt.Prefix + ".stream." + sp.Name
			st.buffers, st.bytesCtr, st.acks = reg.Counter(pre+".buffers"), reg.Counter(pre+".bytes"), reg.Counter(pre+".acks")
		}
		u.streams[sp.Name] = st
		u.order = append(u.order, st)
	}
	for _, name := range rt.Filters {
		for _, cp := range rt.copies[name] {
			if cp.Filter == nil {
				continue
			}
			c := &CopyCtx{u: u, cp: cp, fs: u.stats.Filters[name],
				in: make(map[string]*input), out: make(map[string]*Output)}
			c.env = rt.eng.Env(c)
			if reg != nil {
				c.readStallH = reg.Histogram(rt.Prefix + ".read_stall_seconds")
				c.writeStallH = reg.Histogram(rt.Prefix + ".write_stall_seconds")
				if rt.ServiceTimes {
					c.svcH = reg.Histogram(rt.Prefix + ".filter." + name + ".service_seconds")
				}
			}
			for _, st := range u.order {
				switch name {
				case st.Spec.To:
					q := st.Queue(cp.Host)
					if q == nil {
						return nil, fmt.Errorf("%s: stream %s: consumer copy of %q on host %q has no queue (placement mismatch)", rt.Prefix, st.Spec.Name, name, cp.Host)
					}
					c.in[st.Spec.Name] = &input{st: st, q: q}
				case st.Spec.From:
					c.addOutput(st)
				}
			}
			u.ctxs = append(u.ctxs, c)
		}
	}
	return u, nil
}

func (c *CopyCtx) addOutput(st *Stream) {
	rt := c.u.rt
	out := &Output{Stream: st, c: c}
	targets := make([]TargetInfo, len(st.Hosts))
	for i, h := range st.Hosts {
		targets[i] = TargetInfo{Host: h, Copies: st.Copies[i], Local: h == c.cp.Host}
	}
	var port Port = out
	if p := rt.eng.Port(c, out); p != nil {
		port = p
	}
	sw := NewStreamWriter(st.Spec.Name, rt.Policies.For(st.Spec.Name), targets, port, st.Counts,
		Meta{Obs: rt.Obs, Filter: c.cp.Name, Copy: c.cp.Index, Host: c.cp.Host, UOW: c.u.Index})
	if sw.WantsAcks() {
		out.acks = rt.eng.NewAcks(AckCap(targets, rt.QueueCap))
		sw.BindAckSource(out.acks)
		c.u.acks[ackRef{st.Spec.Name, c.cp.Index}] = out.acks
	}
	out.writer = sw
	st.Writers = append(st.Writers, sw)
	c.out[st.Spec.Name] = out
	c.outs = append(c.outs, out)
}

// Stream returns a stream's state, or nil for an unknown name.
func (u *UOW) Stream(name string) *Stream { return u.streams[name] }

// Streams returns every stream in graph order.
func (u *UOW) Streams() []*Stream { return u.order }

// AckSource returns the acknowledgment source of producer copy `copy` on
// stream, or nil when that copy is not local or its policy wants no acks.
func (u *UOW) AckSource(stream string, copy int) AckSource {
	return u.acks[ackRef{stream, copy}]
}

// Run drives the unit through Init, buffer-size resolution, Process and
// Finalize.
func (u *UOW) Run() error {
	if err := u.Init(); err != nil {
		return err
	}
	for _, st := range u.order {
		st.bytes = st.decl.Resolve(u.rt.BufferBytes)
	}
	var stop func()
	if u.rt.DuringProcess != nil {
		stop = u.rt.DuringProcess(u)
	}
	err := u.Process()
	if stop != nil {
		stop()
	}
	if err != nil {
		return err
	}
	return u.Finalize()
}

// Init runs every copy's Init, gathering buffer declarations.
func (u *UOW) Init() error { return u.phase(PhaseInit, Filter.Init) }

// Process runs every copy's Process with end-of-work propagation, then
// folds the per-target delivery counts into the stats (also when it fails,
// so a failed run still reports what was delivered).
func (u *UOW) Process() error {
	err := u.phase(PhaseProcess, Filter.Process)
	for _, st := range u.order {
		st.Counts.Fold(st.Hosts, u.stats.Streams[st.Spec.Name].PerTargetHost)
	}
	return err
}

// Finalize runs every copy's Finalize.
func (u *UOW) Finalize() error { return u.phase(PhaseFinalize, Filter.Finalize) }

// Decls returns the buffer bounds the copies declared in Init, by stream,
// as {min, max} pairs (streams without declarations are omitted).
func (u *UOW) Decls() map[string][2]int {
	out := make(map[string][2]int)
	for _, st := range u.order {
		st.mu.Lock()
		if st.decl != (BufferDecl{}) {
			out[st.Spec.Name] = [2]int{st.decl.Min, st.decl.Max}
		}
		st.mu.Unlock()
	}
	return out
}

// SetBufferSizes installs buffer sizes resolved elsewhere (dist resolves
// across workers); streams absent from sizes report 0.
func (u *UOW) SetBufferSizes(sizes map[string]int) {
	for _, st := range u.order {
		st.bytes = sizes[st.Spec.Name]
	}
}

// ---- Ctx ----

func (c *CopyCtx) now() float64 { return c.u.rt.eng.Now() }

// Name returns the copy's filter name.
func (c *CopyCtx) Name() string { return c.cp.Name }

// Env returns the copy's execution environment (nil on the real engines).
func (c *CopyCtx) Env() Env { return c.env }

// Done is closed when the unit of work is aborted.
func (c *CopyCtx) Done() <-chan struct{} { return c.u.abort.Done() }

// Read implements Ctx.
func (c *CopyCtx) Read(stream string) (Buffer, bool) {
	in := c.in[stream]
	if in == nil {
		panic(fmt.Sprintf("%s: filter %s reads unknown input stream %q", c.u.rt.Prefix, c.cp.Name, stream))
	}
	t0 := c.now()
	d, ok, err := in.q.Recv(c, stream)
	c.Stall.Read += c.now() - t0
	// The previous buffer is finished now (a delivered buffer is valid
	// until the copy's next Read on the stream).
	if in.release != nil {
		in.release()
		in.release = nil
	}
	if err != nil {
		return Buffer{}, false
	}
	if !ok {
		// End-of-work: release coalesced acknowledgments so producer
		// windows settle even when a batch is incomplete.
		if c.acks != nil {
			c.acks.Flush()
		}
		return Buffer{}, false
	}
	in.release = d.Release
	if d.AckEvery > 0 {
		// Acknowledge as processing begins (paper §2), coalesced per the
		// producer policy's batch factor.
		if c.acks == nil {
			c.acks = NewCoalescer[ackKey](c.sendAck)
		}
		c.acks.Ack(ackKey{stream, d.Ack}, d.AckEvery)
	}
	if c.svcH != nil {
		now := c.now()
		if c.svcLast > 0 {
			c.svcH.Observe(now - c.svcLast)
		}
		c.svcLast = now
	}
	atomic.AddInt64(&c.fs.BuffersIn, 1)
	return d.Buf, true
}

// sendAck accounts one acknowledgment message covering n buffers and hands
// it to the engine.
func (c *CopyCtx) sendAck(k ackKey, n int) {
	atomic.AddInt64(&c.u.stats.Streams[k.stream].Acks, 1)
	if o := c.u.rt.Obs; o != nil {
		if st := c.in[k.stream].st; st.acks != nil {
			st.acks.Inc()
		}
		o.Emit(obs.Event{Kind: obs.KindAck, Filter: c.cp.Name, Copy: c.cp.Index, Host: c.cp.Host, Stream: k.stream, Target: k.to.Host, N: n, UOW: c.u.Index})
	}
	c.u.rt.eng.SendAck(c, k.stream, k.to, n)
}

// Write implements Ctx: ack drain, policy pick and window update happen in
// the StreamWriter, whose Port is the engine transport or Output.Deliver.
func (c *CopyCtx) Write(stream string, b Buffer) error {
	out := c.out[stream]
	if out == nil {
		panic(fmt.Sprintf("%s: filter %s writes unknown output stream %q", c.u.rt.Prefix, c.cp.Name, stream))
	}
	return out.writer.Write(b)
}

// Deliver implements Port for a pick whose copy set this runtime serves:
// the buffer goes into the target's queue, with write-stall accounting.
func (out *Output) Deliver(idx int, b Buffer, ackEvery int) error {
	c, st := out.c, out.Stream
	d := Delivery{Buf: b}
	if ackEvery > 0 {
		d.AckEvery = ackEvery
		d.Ack = AckTo{Sink: out.acks, Host: c.cp.Host, Copy: c.cp.Index, Target: idx}
	}
	t0 := c.now()
	err := st.Queues[idx].Send(c, st.Spec.Name, d)
	c.Stall.Write += c.now() - t0
	if err != nil {
		return err
	}
	c.CountSent(st, b.Size)
	if o := c.u.rt.Obs; o != nil {
		o.Emit(obs.Event{Kind: obs.KindEnqueue, Filter: c.cp.Name, Copy: c.cp.Index, Host: c.cp.Host, Stream: st.Spec.Name, Target: st.Hosts[idx], Bytes: b.Size, UOW: c.u.Index})
	}
	return nil
}

// CountSent accounts one buffer this copy delivered on st.
func (c *CopyCtx) CountSent(st *Stream, size int) {
	ss := c.u.stats.Streams[st.Spec.Name]
	atomic.AddInt64(&ss.Buffers, 1)
	atomic.AddInt64(&ss.Bytes, int64(size))
	atomic.AddInt64(&c.fs.BuffersOut, 1)
	if st.buffers != nil {
		st.buffers.Inc()
		st.bytesCtr.Add(int64(size))
	}
}

// Compute implements Ctx.
func (c *CopyCtx) Compute(refSeconds float64) {
	if c.env != nil {
		c.env.Compute(refSeconds)
	}
}

// ChargeDisk implements Ctx.
func (c *CopyCtx) ChargeDisk(disk, bytes int) {
	if c.env != nil {
		c.env.ChargeDisk(disk, bytes)
	}
}

// DeclareBuffer implements Ctx.
func (c *CopyCtx) DeclareBuffer(stream string, minBytes, maxBytes int) {
	st := c.stream(stream, "declares")
	st.mu.Lock()
	st.decl.Merge(minBytes, maxBytes)
	st.mu.Unlock()
}

// BufferBytes implements Ctx.
func (c *CopyCtx) BufferBytes(stream string) int { return c.stream(stream, "queries").bytes }

func (c *CopyCtx) stream(name, verb string) *Stream {
	if out := c.out[name]; out != nil {
		return out.Stream
	}
	if in := c.in[name]; in != nil {
		return in.st
	}
	panic(fmt.Sprintf("%s: filter %s %s unknown stream %q", c.u.rt.Prefix, c.cp.Name, verb, name))
}

// Host implements Ctx.
func (c *CopyCtx) Host() string { return c.cp.Host }

// CopyIndex implements Ctx.
func (c *CopyCtx) CopyIndex() int { return c.cp.Index }

// TotalCopies implements Ctx.
func (c *CopyCtx) TotalCopies() int { return c.cp.Total }

// UOW implements Ctx.
func (c *CopyCtx) UOW() int { return c.u.Index }

// Work implements Ctx.
func (c *CopyCtx) Work() any { return c.u.work }

// ---- Stall tracing ----

func (c *CopyCtx) event(k obs.Kind) {
	c.u.rt.Obs.Emit(obs.Event{Kind: k, Filter: c.cp.Name, Copy: c.cp.Index, Host: c.cp.Host, UOW: c.u.Index})
}

func (c *CopyCtx) stallEvent(k obs.Kind, stream, dir string) obs.Event {
	return obs.Event{Kind: k, Filter: c.cp.Name, Copy: c.cp.Index, Host: c.cp.Host, Stream: stream, UOW: c.u.Index, Note: dir}
}

func (c *CopyCtx) stallHist(dir string) *obs.Histogram {
	if dir == "read" {
		return c.readStallH
	}
	return c.writeStallH
}

// openStall starts a live stall span (wall-clock engines, obs enabled) and
// returns its closer, which observes the stall histogram and ends the span.
func (c *CopyCtx) openStall(stream, dir string) func() {
	o, t0 := c.u.rt.Obs, c.now()
	o.Emit(c.stallEvent(obs.KindStallStart, stream, dir))
	return func() {
		c.stallHist(dir).Observe(c.now() - t0)
		o.Emit(c.stallEvent(obs.KindStallEnd, stream, dir))
	}
}

// StallSpan records a stall that already happened between t0 and t1 on the
// engine clock (the simulator learns of a stall only after the blocking
// call returns): it observes the stall histogram and back-stamps the span's
// start and end events. No-op when nothing blocked or obs is off.
func (c *CopyCtx) StallSpan(stream, dir string, t0, t1 float64) {
	o := c.u.rt.Obs
	if o == nil || t1 <= t0 {
		return
	}
	c.stallHist(dir).Observe(t1 - t0)
	o.EmitAt(t0, c.stallEvent(obs.KindStallStart, stream, dir))
	o.EmitAt(t1, c.stallEvent(obs.KindStallEnd, stream, dir))
}

// ChanQueue is the Queue of the concurrent engines (core, dist): a buffered
// Go channel. A blocked Send or Recv gives up with ErrCancelled when the
// unit of work is aborted, and with obs enabled an actual block is traced
// as a stall span.
type ChanQueue chan Delivery

// Send implements Queue.
func (q ChanQueue) Send(c *CopyCtx, stream string, d Delivery) error {
	done := c.Done()
	if c.u.rt.Obs != nil {
		select {
		case q <- d:
			return nil
		case <-done:
			return ErrCancelled
		default:
		}
		defer c.openStall(stream, "write")()
	}
	select {
	case q <- d:
		return nil
	case <-done:
		return ErrCancelled
	}
}

// Recv implements Queue.
func (q ChanQueue) Recv(c *CopyCtx, stream string) (Delivery, bool, error) {
	done := c.Done()
	if c.u.rt.Obs != nil {
		select {
		case d, ok := <-q:
			return d, ok, nil
		case <-done:
			return Delivery{}, false, ErrCancelled
		default:
		}
		defer c.openStall(stream, "read")()
	}
	select {
	case d, ok := <-q:
		return d, ok, nil
	case <-done:
		return Delivery{}, false, ErrCancelled
	}
}

// Close implements Queue.
func (q ChanQueue) Close() { close(q) }

// Len implements Queue.
func (q ChanQueue) Len() int { return len(q) }
