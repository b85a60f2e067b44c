// Package core implements a DataCutter-style component framework: an
// application is decomposed into filters connected by unidirectional
// streams that carry fixed-size buffers. Filters can be transparently
// replicated — executed as multiple copies across hosts without the filter
// being aware of the replication — and the runtime distributes each
// produced buffer to one consumer copy set according to a configurable
// writer policy (round robin, weighted round robin, or demand driven).
//
// The package contains the engine-neutral model (Graph, Placement, Policy,
// Filter) and the real execution engine: goroutines and Go channels plugged
// into the copy-set runtime of internal/exec. The same model runs unchanged
// on a simulated heterogeneous cluster via internal/simrt and across
// processes via internal/dist.
package core

import "datacutter/internal/exec"

// Buffer is the unit of data carried by a stream: a fixed-size container
// written by a producer filter and consumed by exactly one copy of the
// consumer filter. Payload holds the application data (voxels, triangles,
// pixel runs — or workload descriptors on the simulated engine); Size is
// the serialized size in bytes, used for accounting and transfer-cost
// modeling. The type is an alias for exec.Buffer, the unit the shared
// stream-writer runtime moves.
type Buffer = exec.Buffer

// Filter is a user-defined component driven through work cycles (Init,
// Process until end-of-work, Finalize); see exec.Filter.
type Filter = exec.Filter

// ObserverSetter is an optional Filter extension that receives the engine's
// observer at instantiation; see exec.ObserverSetter.
type ObserverSetter = exec.ObserverSetter

// Ctx is the runtime interface handed to a filter copy. Every engine uses
// the shared copy-set runtime's implementation (exec.CopyCtx), so a filter
// written against Ctx runs on any of them.
type Ctx = exec.Ctx

// BaseFilter provides no-op Init and Finalize so simple filters only
// implement Process.
type BaseFilter struct{}

// Init implements Filter.
func (BaseFilter) Init(Ctx) error { return nil }

// Finalize implements Filter.
func (BaseFilter) Finalize(Ctx) error { return nil }

// ErrCancelled is returned by Ctx.Write when the run has been aborted
// (another filter failed).
var ErrCancelled = exec.ErrCancelled
