// Package dist executes a filter graph across multiple OS processes
// connected by TCP — the deployment model of the original DataCutter
// prototype ("the current prototype implementation uses TCP for stream
// communication", paper §2). A coordinator distributes the graph spec and
// placement to workers (one per named host); each worker runs its local
// transparent copies as goroutines; stream buffers between copies on
// different hosts travel as length-prefixed binary frames over
// per-host-pair TCP connections, with TCP backpressure standing in for
// bounded queues across the wire. The same core.Policy objects drive
// buffer distribution, and demand-driven acknowledgments are real network
// messages.
//
// The data plane (data, ack, and producer-done frames) uses hand-rolled
// binary headers, per-payload-type codecs (PayloadCodec, with a gob
// fallback for unregistered types), pooled frame buffers, and buffered
// connection writers whose flush-on-idle policy coalesces bursts of small
// frames into single syscalls (wire.go, codec.go). Control frames stay on
// gob — they are per-session or per-unit-of-work, never per-buffer.
//
// Filters are constructed worker-side from a registry of named builders
// (the coordinator ships only the spec), so any process that imports the
// application's filter package can serve as a worker.
package dist

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/elastic"
	"datacutter/internal/exec"
	"datacutter/internal/faults"
)

// FilterSpec names a registered filter builder plus its parameters.
type FilterSpec struct {
	Name   string // filter name in the graph
	Kind   string // registered builder kind
	Params []byte // builder-specific encoding (often gob or JSON)
}

// GraphSpec is a serializable filter graph.
type GraphSpec struct {
	Filters []FilterSpec
	Streams []core.StreamSpec
}

// PlacementEntry assigns copies of a filter to a host. It is the
// engine-neutral elastic.Entry, so fault replanning and scale schedules
// operate on a dist placement directly.
type PlacementEntry = elastic.Entry

// Options configures a distributed run.
type Options struct {
	// JobID namespaces the run on the worker mesh: every setup, data, ack,
	// and producer-done frame carries it, so one persistent worker process
	// serves interleaved sessions from many concurrent jobs (internal/jobd
	// assigns unique ids). Zero — the default for one-shot runs — behaves
	// exactly like the pre-job protocol: a second setup with the same id is
	// refused while the first session is active.
	JobID uint64

	Policy string // default policy name (core.PolicyByName); default RR
	// StreamPolicy overrides the writer policy for individual streams by
	// name ("RR" | "WRR" | "DD" | "DD/<k>"). Carried to every worker in
	// the setup frame; the coordinator rejects the run up front if any
	// name fails core.PolicyByName.
	StreamPolicy map[string]string
	QueueCap     int // per-copy-set queue capacity (default 8)
	BufferBytes  int // default stream buffer size (default 256 KiB)

	// Transport selects the peer data-plane link: "tcp" (the default, also
	// chosen by "") always dials sockets; "ring" moves frames over
	// in-process SPSC rings and fails when a peer worker is not in this
	// process; "auto" uses a ring per edge when the peer is in-process and
	// TCP otherwise. Control-plane traffic always stays on TCP. Carried to
	// every worker in the setup frame.
	Transport string

	// ScaleSchedule lists seeded copy-set membership changes applied at
	// work-cycle boundaries (elastic.ScaleStep.BeforeUOW >= 1): the
	// coordinator restarts worker sessions with the mutated placement.
	// Gob-carried in the setup frame like the rest of Options, though only
	// the coordinator acts on it.
	ScaleSchedule []elastic.ScaleStep

	// Failure model. Zero values select the defaults below; recovery is
	// opt-in — with MaxUOWRetries at its default of 0, a lost host fails
	// the run immediately (the pre-failure-model behaviour).
	DialTimeout       time.Duration // per-attempt dial timeout (default DefaultDialTimeout)
	DialAttempts      int           // dial attempts before giving up (default 3)
	HeartbeatInterval time.Duration // control-plane heartbeat period (default 1s)
	HeartbeatMisses   int           // consecutive missed beats before a host is dead (default 3)
	MaxUOWRetries     int           // re-dispatches of a failed UOW on a shrunk placement

	// faults is a coordinator-side injector (dial failures). Unexported so
	// gob never ships it to workers; workers get their own injector via
	// Worker.SetFaults. Set with WithFaults.
	faults *faults.Injector
}

// Defaults for the failure-model knobs in Options.
const (
	DefaultDialTimeout       = 10 * time.Second
	DefaultDialAttempts      = 3
	DefaultHeartbeatInterval = time.Second
	DefaultHeartbeatMisses   = 3
)

// WithFaults returns a copy of o carrying a coordinator-side fault
// injector (consulted on dial attempts). Test/chaos use only.
func (o Options) WithFaults(in *faults.Injector) Options {
	o.faults = in
	return o
}

// validate rejects nonsensical knob values; zero means "use the default".
func (o Options) validate() error {
	if err := exec.ValidateSizes("dist", o.QueueCap, o.BufferBytes); err != nil {
		return err
	}
	if o.DialTimeout < 0 {
		return fmt.Errorf("dist: Options.DialTimeout must be >= 0, got %v", o.DialTimeout)
	}
	if o.DialAttempts < 0 {
		return fmt.Errorf("dist: Options.DialAttempts must be >= 0, got %d", o.DialAttempts)
	}
	if o.HeartbeatInterval < 0 {
		return fmt.Errorf("dist: Options.HeartbeatInterval must be >= 0, got %v", o.HeartbeatInterval)
	}
	if o.HeartbeatMisses < 0 {
		return fmt.Errorf("dist: Options.HeartbeatMisses must be >= 0, got %d", o.HeartbeatMisses)
	}
	if o.MaxUOWRetries < 0 {
		return fmt.Errorf("dist: Options.MaxUOWRetries must be >= 0, got %d", o.MaxUOWRetries)
	}
	switch o.Transport {
	case "", TransportTCP, TransportRing, TransportAuto:
	default:
		return fmt.Errorf("dist: Options.Transport must be %q, %q, or %q, got %q",
			TransportTCP, TransportRing, TransportAuto, o.Transport)
	}
	return nil
}

// defaultDialTimeoutNanos lets a process override the fallback dial timeout
// (dcworker -dialtimeout) for sessions whose Options leave it zero; workers
// receive Options from the coordinator, so this is their only local knob.
var defaultDialTimeoutNanos atomic.Int64

// SetDefaultDialTimeout sets this process's fallback dial timeout, used
// whenever Options.DialTimeout is zero. d <= 0 restores DefaultDialTimeout.
func SetDefaultDialTimeout(d time.Duration) {
	defaultDialTimeoutNanos.Store(int64(d))
}

func (o *Options) dialTimeout() time.Duration {
	if o.DialTimeout > 0 {
		return o.DialTimeout
	}
	if d := defaultDialTimeoutNanos.Load(); d > 0 {
		return time.Duration(d)
	}
	return DefaultDialTimeout
}

func (o *Options) dialAttempts() int { return exec.OrDefault(o.DialAttempts, DefaultDialAttempts) }

func (o *Options) hbInterval() time.Duration {
	return exec.OrDefault(o.HeartbeatInterval, DefaultHeartbeatInterval)
}

func (o *Options) hbMisses() int { return exec.OrDefault(o.HeartbeatMisses, DefaultHeartbeatMisses) }

// hbTimeout is how long silence on the control plane is tolerated.
func (o *Options) hbTimeout() time.Duration {
	return o.hbInterval() * time.Duration(o.hbMisses())
}

// Builder constructs a filter instance on a worker.
type Builder func(params []byte) (core.Filter, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Builder{}
)

// RegisterFilter makes a filter kind constructible on workers. Typically
// called from an init function in the application's filter package.
func RegisterFilter(kind string, b Builder) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic("dist: duplicate filter kind " + kind)
	}
	registry[kind] = b
}

func builderFor(kind string) (Builder, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[kind]
	if !ok {
		return nil, fmt.Errorf("dist: filter kind %q not registered on this worker", kind)
	}
	return b, nil
}

// ---- Wire frames ----
//
// Control frames travel on the coordinator<->worker connection; data, ack,
// and producer-done frames travel on worker->worker connections (one TCP
// connection per ordered host pair, so FIFO ordering between a host's data
// and its end-of-work markers is guaranteed by TCP). Frame serialization
// lives in wire.go: binary bodies for the data plane, gob for control.

type frame struct {
	Kind frameKind

	// Control (coordinator -> worker).
	Setup *setupMsg
	UOW   *uowMsg
	Sizes map[string]int // resolved stream buffer sizes

	// Control (worker -> coordinator).
	Decls map[string][2]int // stream -> {min,max} declared this UOW
	Err   string
	Stats *wireStats
	// Failure attribution on kindFail: when the first failure a worker saw
	// was a transport error talking to a peer, FailNet is true and FailHost
	// names the implicated host, so the coordinator can mark that host dead
	// instead of treating a cascade as an application error.
	FailHost string
	FailNet  bool

	// Peer traffic (worker -> worker).
	Job     uint64 // job the frame belongs to (session demux on the worker)
	UOWIdx  int    // unit of work the frame belongs to (stale frames dropped)
	Stream  string // stream name (interned on receive)
	Target  int    // consumer copy-set index (data) / producer target index (ack)
	Copy    int    // producer global copy index (data: sender; ack: addressee)
	AckN    int    // coalesced ack count
	Codec   uint16 // payload codec id (0 = gob fallback)
	Payload []byte // encoded payload; on receive it aliases the pooled wire buffer
	Size    int    // buffer's accounted size

	// payloadVal is a tx-side payload value serialized by appendFrame via
	// the codec registry (hasPayloadVal distinguishes an untyped nil value
	// from "use the pre-encoded Payload bytes").
	payloadVal    any
	hasPayloadVal bool
	// rel recycles the pooled wire buffer a received data frame (and its
	// in-place-decoded payload) lives in; see frame.release.
	rel func()
}

// dataFrame builds a tx data frame around a payload value.
func dataFrame(job uint64, uowIdx int, stream string, copyIdx, target, ackN, size int, payload any) *frame {
	return &frame{
		Kind: kindData, Job: job, UOWIdx: uowIdx, Stream: stream, Copy: copyIdx,
		Target: target, AckN: ackN, Size: size,
		payloadVal: payload, hasPayloadVal: true,
	}
}

type frameKind uint8

const (
	kindHello frameKind = iota + 1
	kindSetup
	kindSetupOK
	kindInitUOW
	kindDecls
	kindBeginProcess
	kindProcessDone
	kindFinalize
	kindFinalizeDone
	kindShutdown
	kindData
	kindAck
	kindProducerDone
	kindFail
	kindHeartbeat    // liveness beacon, both directions on the control plane
	kindAbort        // coordinator -> worker: tear the session down now
	kindAbortDone    // worker -> coordinator: session torn down
	kindShutdownDone // worker -> coordinator: graceful session end confirmed
)

type setupMsg struct {
	Graph     GraphSpec
	Placement []PlacementEntry
	Opts      Options
	Addrs     map[string]string // host name -> worker address
	Host      string            // the receiving worker's host name
}

type uowMsg struct {
	Index int
	Work  []byte // gob-encoded unit-of-work descriptor
}

// wireStats is the per-worker stats fragment returned at finalize.
type wireStats struct {
	StreamBuffers map[string]int64
	StreamBytes   map[string]int64
	StreamAcks    map[string]int64
	PerTarget     map[string]map[string]int64 // stream -> host -> buffers
	FilterBusy    map[string][]float64        // filter -> per-local-copy busy seconds
}

// RegisterPayload registers a buffer payload or unit-of-work type with gob
// (convenience wrapper so applications don't import encoding/gob). Types
// without a RegisterCodec fast path travel through the gob fallback.
func RegisterPayload(v any) { gob.Register(v) }

// RawUOW is a pre-encoded unit-of-work descriptor (the output of
// EncodeUOW). A coordinator passes it through to workers verbatim instead
// of gob-encoding it again, so a job server can relay units of work whose
// concrete Go types only the submitting client and the workers know.
type RawUOW []byte

// EncodeUOW serializes a unit-of-work descriptor for transport outside a
// live session — e.g. inside a job submission to internal/jobd. The
// concrete type must be registered (RegisterPayload) in the worker
// processes that will decode it.
func EncodeUOW(v any) (RawUOW, error) {
	raw, err := encodeAny(v)
	return RawUOW(raw), err
}

// DecodeUOW reverses EncodeUOW; the concrete type must be registered in
// this process.
func DecodeUOW(raw RawUOW) (any, error) { return decodeAny(raw) }

// encodeAny gob-encodes a value (with its concrete type registered) —
// the gob-fallback payload format and the unit-of-work descriptor format.
func encodeAny(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeAny(raw []byte) (any, error) {
	var v any
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}
