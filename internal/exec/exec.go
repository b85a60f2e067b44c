// Package exec is the copy-set runtime shared by all three engines: the
// one implementation of the paper's runtime model. It owns the transparent
// copies of every filter and their rescaling, each unit of work's stream
// wiring, the filter Ctx, the Init/Process/Finalize phases (runtime.go,
// uow.go), and everything between "a filter produced a buffer" and "bytes
// handed to a transport": writer-policy construction from TargetInfo
// (RR/WRR/DD, see policy.go), the demand-driven unacked sliding window and
// ack coalescing, end-of-work countdowns, per-target delivery stats, and
// the internal/obs buffer-lifecycle events.
//
// An engine plugs in through Engine: its clock, how a copy's phase body
// runs, its queue primitive, and its transport — a Port delivers a picked
// buffer (a Go channel in internal/core, a virtual-time NIC transfer in
// internal/simrt, a local queue or the wire in internal/dist), and an
// AckSource surfaces consumer acknowledgments back to the producer side
// (an AckChan for the concurrent engines, an AckSeq for the cooperative
// simulator). Policy semantics are implemented once and verified once
// (see the cross-engine equivalence test).
package exec

import (
	"sync"

	"datacutter/internal/obs"
)

// Buffer is the unit of data flowing through a stream: an opaque payload
// plus its size in bytes for accounting and simulation.
type Buffer struct {
	Payload any
	Size    int
}

// Port delivers one picked buffer to a target copy set. It is the
// engine-owned half of a stream-writer path: everything before Deliver
// (policy pick, window update, pick trace event) is shared runtime,
// everything from Deliver on (queueing, wire framing, virtual-time NIC
// charges, enqueue/send trace events, backpressure stalls, cancellation)
// belongs to the engine.
//
// ackEvery is the consumer-side acknowledgment contract for this buffer:
// 0 means the policy wants no acks, k >= 1 means the consumer must
// acknowledge every k-th buffer it dequeues (coalesced via Coalescer).
// Deliver returns the engine's cancellation error (e.g. core.ErrCancelled)
// when the run is being torn down; the StreamWriter then reports the
// buffer as undelivered (no stats, no count).
type Port interface {
	Deliver(target int, b Buffer, ackEvery int) error
}

// PortFunc adapts a function to Port.
type PortFunc func(target int, b Buffer, ackEvery int) error

// Deliver implements Port.
func (f PortFunc) Deliver(target int, b Buffer, ackEvery int) error { return f(target, b, ackEvery) }

// AckSource drains consumer acknowledgments on the producer side. TryAck
// never blocks; it returns one coalesced acknowledgment (target index and
// buffer count) or ok=false when none are pending. The StreamWriter drains
// it fully at each Write, which is exactly when the window counts are
// read — acks arriving between writes cannot influence a pick anyway.
type AckSource interface {
	TryAck() (target, n int, ok bool)
}

// AckChan is the AckSource for the concurrent engines (core, dist): a
// buffered channel of (target, count) acknowledgments that consumers send
// into and one producer copy drains. Capacity must cover the worst-case
// in-flight acknowledgment count (see AckCap) so consumer-side sends never
// block; dist additionally uses Offer to shed rather than stall when a
// fault-injected peer floods it.
type AckChan chan [2]int

// NewAckChan returns an AckChan with the given capacity.
func NewAckChan(capacity int) AckChan { return make(AckChan, capacity) }

// Ack records n acknowledged buffers for target. It blocks if the channel
// is full, which a correctly sized channel (AckCap) never is.
func (c AckChan) Ack(target, n int) { c <- [2]int{target, n} }

// Offer records the acknowledgment if there is room and drops it
// otherwise, reporting whether it was accepted. The drop path exists for
// dist's receive loop, where a faulty peer must not be able to wedge the
// worker by overflowing the window bookkeeping.
func (c AckChan) Offer(target, n int) bool {
	select {
	case c <- [2]int{target, n}:
		return true
	default:
		return false
	}
}

// TryAck implements AckSource.
func (c AckChan) TryAck() (target, n int, ok bool) {
	select {
	case a := <-c:
		return a[0], a[1], true
	default:
		return 0, 0, false
	}
}

// AckSeq is the AckSource for the cooperative simulator: a plain slice,
// safe because the sim kernel runs one process at a time and acknowledging
// processes and the producer never interleave within a step.
type AckSeq struct {
	pending [][2]int
}

// Ack appends n acknowledged buffers for target.
func (s *AckSeq) Ack(target, n int) { s.pending = append(s.pending, [2]int{target, n}) }

// TryAck implements AckSource.
func (s *AckSeq) TryAck() (target, n int, ok bool) {
	if len(s.pending) == 0 {
		return 0, 0, false
	}
	a := s.pending[0]
	s.pending = s.pending[1:]
	if len(s.pending) == 0 {
		s.pending = nil
	}
	return a[0], a[1], true
}

// AckCap returns the ack-channel capacity guaranteeing consumer-side acks
// never block: one slot per buffer that can be in flight toward any target
// (its queue capacity plus one per consumer copy holding a dequeued buffer)
// plus slack for acks drained but not yet applied.
func AckCap(targets []TargetInfo, queueCap int) int {
	capacity := 8
	for _, t := range targets {
		c := t.Copies
		if c < 1 {
			c = 1
		}
		capacity += queueCap + c
	}
	return capacity
}

// Meta identifies a producer copy's stream writer for observability. Obs
// may be nil, disabling pick events.
type Meta struct {
	Obs    *obs.Observer
	Filter string // producer filter name
	Copy   int    // producer global copy index
	Host   string // producer host
	UOW    int    // current unit-of-work index
}

// StreamWriter is the shared per-(producer copy, stream) write path: it
// drains acknowledgments into the unacked sliding window, asks the policy
// writer to pick a target copy set, emits the pick trace event, hands the
// buffer to the engine Port, and counts the delivery. One StreamWriter is
// single-producer state — engines create one per producer copy per stream
// (core, simrt) or one per producing host per stream (dist, where a host's
// copies share the write path under the session lock).
//
// The target set is runtime-mutable: AddTarget/RemoveTarget/Reweight queue
// membership changes that take effect at the next buffer-pick boundary (see
// mutable.go). Target indices are stable for the writer's lifetime — a
// removed target keeps its index (and its unacked-window slot, so late acks
// still land) and a re-added host reclaims it; brand-new hosts append. The
// policy writer itself only ever sees the active targets.
type StreamWriter struct {
	stream   string
	pol      Policy
	targets  []TargetInfo // stable-index table; removed targets keep slots
	w        Writer       // policy state over the active view
	unacked  []int        // stable-index space
	acks     AckSource
	ackEvery int
	counts   *Counts
	port     Port
	meta     Meta

	mu      sync.Mutex // guards pending ops, window, view, and policy state
	pending []targetOp
	active  []bool
	view    []int // active stable indices in stable order; nil = identity
	scratch []int // view-space unacked, reused across picks
	mutated bool  // true once the view differs from the stable table
}

// NewStreamWriter builds the write path for one stream: policy writer from
// the targets, window sized to match, coalescing factor from the policy.
// counts may be shared across the producer copies of one stream (their
// deliveries tally into one per-target total). Bind an AckSource with
// BindAckSource when WantsAcks reports true.
func NewStreamWriter(stream string, p Policy, targets []TargetInfo, port Port, counts *Counts, meta Meta) *StreamWriter {
	w := p.NewWriter(targets)
	sw := &StreamWriter{
		stream:  stream,
		pol:     p,
		targets: append([]TargetInfo(nil), targets...),
		w:       w,
		unacked: make([]int, len(targets)),
		active:  make([]bool, len(targets)),
		counts:  counts,
		port:    port,
		meta:    meta,
	}
	for i := range sw.active {
		sw.active[i] = true
	}
	if w.WantsAcks() {
		sw.ackEvery = AckBatchOf(w)
	}
	return sw
}

// WantsAcks reports whether the policy needs the consumer-side ack path.
func (sw *StreamWriter) WantsAcks() bool { return sw.w.WantsAcks() }

// AckEvery returns the consumer acknowledgment contract: 0 when the policy
// wants no acks, otherwise the coalescing factor (1 = ack every buffer).
func (sw *StreamWriter) AckEvery() int { return sw.ackEvery }

// BindAckSource attaches the engine's ack path. Required before Write when
// WantsAcks is true.
func (sw *StreamWriter) BindAckSource(src AckSource) { sw.acks = src }

// Targets returns a copy of the writer's active copy-set targets in stable
// index order. It is a defensive copy: the underlying set is runtime-mutable,
// so handing out the internal slice would let callers alias state that
// AddTarget/RemoveTarget/Reweight change underneath them.
func (sw *StreamWriter) Targets() []TargetInfo {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	out := make([]TargetInfo, 0, len(sw.targets))
	for i, t := range sw.targets {
		if sw.active[i] {
			out = append(out, t)
		}
	}
	return out
}

// Write sends one buffer: drain pending acks into the window, pick a
// target, deliver, count. The window is incremented at pick time — before
// the Port runs — so a policy never sees a buffer it already placed as
// absent from the window while the transport is still moving it. On a
// Deliver error the buffer is uncounted; the window deliberately keeps the
// increment, since a failed Deliver only happens during teardown when no
// further picks occur.
func (sw *StreamWriter) Write(b Buffer) error {
	sw.mu.Lock()
	if len(sw.pending) > 0 {
		sw.applyPending()
	}
	if sw.acks != nil {
		for {
			target, n, ok := sw.acks.TryAck()
			if !ok {
				break
			}
			sw.unacked[target] -= n
		}
	}
	var idx int
	if !sw.mutated {
		idx = sw.w.Pick(sw.unacked)
	} else {
		// The policy writer runs in view space (active targets only); map
		// its pick back to the stable index the transport and acks use.
		if cap(sw.scratch) < len(sw.view) {
			sw.scratch = make([]int, len(sw.view))
		}
		s := sw.scratch[:len(sw.view)]
		for vi, si := range sw.view {
			s[vi] = sw.unacked[si]
		}
		idx = sw.view[sw.w.Pick(s)]
	}
	if sw.w.WantsAcks() {
		sw.unacked[idx]++
	}
	targetHost := sw.targets[idx].Host
	ackEvery := sw.ackEvery
	sw.mu.Unlock()
	if sw.meta.Obs != nil {
		sw.meta.Obs.Emit(obs.Event{
			Kind: obs.KindPick, Filter: sw.meta.Filter, Copy: sw.meta.Copy,
			Host: sw.meta.Host, Stream: sw.stream, Target: targetHost,
			UOW: sw.meta.UOW,
		})
	}
	if err := sw.port.Deliver(idx, b, ackEvery); err != nil {
		return err
	}
	if sw.counts != nil {
		sw.counts.Inc(idx)
	}
	return nil
}

// Unacked returns a copy of the sliding window in stable index order, for
// tests and debugging. Removed targets keep their slots (late acks still
// drain them), so the slice always spans every target ever added.
func (sw *StreamWriter) Unacked() []int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	out := make([]int, len(sw.unacked))
	copy(out, sw.unacked)
	return out
}

// Coalescer batches consumer-side acknowledgments: Ack counts one dequeued
// buffer toward key and invokes send once every `every` buffers; Flush
// sends whatever remains at end-of-work so DD windows drain even when the
// buffer count is not a multiple of the batch factor. K identifies the
// producer-side window the ack belongs to — engines key it by ack channel
// and target (core), writer state (simrt), or origin coordinates (dist).
type Coalescer[K comparable] struct {
	pending map[K]int
	send    func(key K, n int)
}

// NewCoalescer returns a Coalescer delivering batches through send.
func NewCoalescer[K comparable](send func(key K, n int)) *Coalescer[K] {
	return &Coalescer[K]{pending: make(map[K]int), send: send}
}

// Ack records one consumed buffer for key, sending a coalesced
// acknowledgment once `every` are pending.
func (c *Coalescer[K]) Ack(key K, every int) {
	c.pending[key]++
	if c.pending[key] >= every {
		n := c.pending[key]
		delete(c.pending, key)
		c.send(key, n)
	}
}

// Flush sends all residual partial batches. Call at end-of-work.
func (c *Coalescer[K]) Flush() {
	for key, n := range c.pending {
		delete(c.pending, key)
		c.send(key, n)
	}
}

// Pending returns the number of keys holding a partial batch.
func (c *Coalescer[K]) Pending() int { return len(c.pending) }
