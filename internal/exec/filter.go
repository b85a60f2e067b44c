package exec

import (
	"errors"

	"datacutter/internal/obs"
)

// Filter is a user-defined component. The runtime drives each copy of a
// filter through work cycles (units of work): Init, then Process until all
// input streams reach end-of-work, then Finalize.
type Filter interface {
	// Init prepares per-unit-of-work resources (e.g. allocates a z-buffer)
	// and may declare stream buffer sizes via ctx.DeclareBuffer.
	Init(ctx Ctx) error
	// Process reads buffers from input streams and writes buffers to output
	// streams. It must return once every input stream has reported
	// end-of-work (Read returned ok == false); source filters return once
	// they have produced all their data.
	Process(ctx Ctx) error
	// Finalize releases unit-of-work resources and may emit final results
	// (a combine filter typically writes or stores its merged output here).
	Finalize(ctx Ctx) error
}

// ObserverSetter is an optional Filter extension. A filter that owns an
// instrumented subsystem — e.g. a dataset.Store whose predicate pruning
// publishes chunks-pruned/bytes-skipped metrics — implements it to receive
// the engine's observer. Engines invoke it once per copy at instantiation,
// before any work cycle; the argument may be nil (observability disabled).
type ObserverSetter interface {
	SetObserver(o *obs.Observer)
}

// Ctx is the runtime interface handed to a filter copy. Every engine hands
// its copies the same implementation (CopyCtx), so a filter written against
// Ctx runs on any of them.
type Ctx interface {
	// Read dequeues the next buffer from the named input stream, blocking
	// until one is available. ok is false when the stream has reached
	// end-of-work (all producer copies finished and the queue drained) or
	// the run was cancelled.
	Read(stream string) (b Buffer, ok bool)
	// Write sends a buffer on the named output stream. The runtime selects
	// the destination copy set using the stream's writer policy. It blocks
	// while the destination queue is full and returns an error only if the
	// run was cancelled.
	Write(stream string, b Buffer) error

	// Compute charges `refSeconds` seconds of reference-CPU work. On the
	// real engines this is a no-op (the work is the real computation the
	// filter just did); on the simulated engine it advances virtual time
	// under the host's processor-sharing CPU model.
	Compute(refSeconds float64)
	// ChargeDisk charges a read of `bytes` from the host's disk `disk`
	// (modulo the host's disk count). No-op on the real engines.
	ChargeDisk(disk int, bytes int)

	// DeclareBuffer discloses the minimum and optional maximum buffer size
	// (bytes) the filter wants for a stream; the runtime chooses the actual
	// size within those bounds. maxBytes <= 0 means unbounded. Valid in
	// Init.
	DeclareBuffer(stream string, minBytes, maxBytes int)
	// BufferBytes returns the buffer size the runtime chose for a stream.
	BufferBytes(stream string) int

	// Host returns the name of the host this copy runs on.
	Host() string
	// CopyIndex returns this copy's global index in [0, TotalCopies).
	CopyIndex() int
	// TotalCopies returns the number of transparent copies of this filter.
	TotalCopies() int
	// UOW returns the zero-based index of the current unit of work.
	UOW() int
	// Work returns the application-supplied descriptor for the current
	// unit of work, e.g. a timestep + view parameters.
	Work() any
}

// StreamSpec is a logical unidirectional stream between two filters. The
// runtime maintains the illusion of a single point-to-point pipe even when
// either endpoint is transparently copied.
type StreamSpec struct {
	Name string // unique stream name, used by Ctx.Read/Write
	From string // producer filter name
	To   string // consumer filter name
}

// ErrCancelled is returned by Ctx.Write when the run has been aborted
// (another filter failed). The message keeps the core prefix it has always
// carried.
var ErrCancelled = errors.New("core: run cancelled")
