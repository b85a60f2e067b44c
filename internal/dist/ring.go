package dist

import (
	"fmt"
	"sync"
	"time"

	"datacutter/internal/exec"
)

// In-process ring transport: when the producer and consumer workers of a
// copy-set edge live in the same process (tests, benchmarks, conformance
// runs, jobd colocations), frames can skip the TCP stack entirely. A
// ringLink moves *frame values over a lock-light SPSC ring (exec.Ring) —
// no codec encode, no syscalls, no decode: the payload value the producer
// handed to its StreamWriter is the very value the consumer's queue
// receives. Acks and producer-done markers ride the reverse-direction link
// the same way, so the ack window and end-of-work ordering semantics are
// identical to TCP's (one FIFO link per session per direction).
//
// Selection is placement-aware and per-edge: Options.Transport "auto" uses
// a ring exactly for peers whose advertised address is served by a live
// Worker in this process and falls back to TCP otherwise; "ring" requires
// it and fails the session when a peer is out-of-process. The control plane
// (coordinator <-> worker) always stays on TCP.

// Transport mode names for Options.Transport.
const (
	TransportTCP  = "tcp"
	TransportRing = "ring"
	TransportAuto = "auto"
)

// ringCap is the frame capacity of one ring-link direction. Together with
// the consumer-side copy-set queues it bounds in-flight frames per edge;
// a full ring blocks the producer, standing in for TCP backpressure.
const ringCap = 512

// ---- In-process worker registry ----

// inprocWorkers maps listen addresses to the live Workers of this process,
// so a session can recognize that a peer "host" is actually local. Workers
// register in NewWorker and leave on Close/Kill.
var (
	inprocMu      sync.RWMutex
	inprocWorkers = map[string]*Worker{}
)

func registerInproc(w *Worker) {
	inprocMu.Lock()
	inprocWorkers[w.Addr()] = w
	inprocMu.Unlock()
}

func unregisterInproc(w *Worker) {
	inprocMu.Lock()
	if inprocWorkers[w.Addr()] == w {
		delete(inprocWorkers, w.Addr())
	}
	inprocMu.Unlock()
}

func inprocWorker(addr string) *Worker {
	inprocMu.RLock()
	defer inprocMu.RUnlock()
	return inprocWorkers[addr]
}

// peerLink is a session's transport attachment to one peer worker: a TCP
// conn (wire.go) or an in-process ringLink. send must be safe for
// concurrent producer goroutines; close must be idempotent.
type peerLink interface {
	send(f *frame) error
	close()
}

var errRingPeerDown = fmt.Errorf("dist: in-process ring peer is down")

// ringLink is one directed in-process edge between two workers. The sender
// side serializes producers with sendMu (the ring is single-producer); the
// receiver side is a single serveRing goroutine, keeping the ring's SPSC
// contract.
type ringLink struct {
	src, dst *Worker
	ring     *exec.Ring[*frame]
	stop     chan struct{} // unblocks pushers when either endpoint dies
	once     sync.Once

	sendMu sync.Mutex
	bound  map[uint64]*session // dst's sessions when the link formed (Worker.peerSessions)
}

// newRingLink connects src to an in-process dst and starts the consumer
// goroutine. Both endpoints track the link, so a Kill or Close of either
// worker severs it.
func newRingLink(src, dst *Worker) (*ringLink, error) {
	rl := &ringLink{
		src:   src,
		dst:   dst,
		ring:  exec.NewRing[*frame](ringCap),
		stop:  make(chan struct{}),
		bound: dst.peerSessions(),
	}
	if !src.trackRing(rl) {
		return nil, errRingPeerDown
	}
	if !dst.trackRing(rl) {
		src.untrackRing(rl)
		return nil, errRingPeerDown
	}
	go dst.serveRing(rl)
	return rl, nil
}

// send implements peerLink. Frames are moved by reference — callers build a
// fresh frame per send, so the receiver owns it. The sender-side fault
// hooks (drop/dup/delay) apply exactly as on a TCP conn; a duplicated frame
// is pushed as a shallow copy so the two deliveries stay independent.
func (rl *ringLink) send(f *frame) error {
	var dup bool
	if fi := rl.src.fi; fi != nil && f.Kind == kindData {
		act := fi.DataSent(f.Stream)
		if act.Delay > 0 {
			time.Sleep(act.Delay)
		}
		if act.Drop {
			return nil // vanished in transit
		}
		dup = act.Dup
	}
	rl.sendMu.Lock()
	err := rl.ring.Push(f, rl.stop)
	if err == nil && dup {
		cp := *f
		err = rl.ring.Push(&cp, rl.stop)
	}
	rl.sendMu.Unlock()
	if err != nil {
		return errRingPeerDown
	}
	return nil
}

// close implements peerLink. The ring is closed rather than dropped, so the
// consumer drains frames already pushed (a final producer-done marker must
// not be lost to a racing teardown) before its goroutine exits.
func (rl *ringLink) close() {
	rl.once.Do(func() {
		close(rl.stop)
		rl.ring.Close()
		rl.src.untrackRing(rl)
		rl.dst.untrackRing(rl)
	})
}

// serveRing is the consumer half of an inbound ring link — the in-process
// analogue of servePeer: pop frames and dispatch them into the owning job's
// session. The receive-side fault hooks (kill/wedge) count ring frames like
// wire frames, so chaos and conformance fault plans behave identically on
// both transports.
func (w *Worker) serveRing(rl *ringLink) {
	defer rl.close()
	for {
		f, ok := rl.ring.Pop(nil)
		if !ok {
			return
		}
		if w.fi != nil {
			kill, stall := w.fi.FrameReceived(f.Kind == kindData)
			if kill {
				// FrameReceived already ran Worker.Kill: every link
				// (including this one) is severed.
				return
			}
			if stall > 0 {
				time.Sleep(stall)
			}
		}
		if m := w.metrics(); m != nil && f.Kind == kindData {
			m.rxRingFrames.Inc()
		}
		w.countRx(f)
		s := w.peerSession(f.Job, rl.bound)
		if s == nil {
			continue // stale frame after the job's session ended
		}
		s.dispatchPeer(f)
	}
}

// trackRing registers a ring link endpoint for severing; false when the
// worker is already dead (the link must not form).
func (w *Worker) trackRing(rl *ringLink) bool {
	w.connsMu.Lock()
	defer w.connsMu.Unlock()
	if w.killed || w.closed.Load() {
		return false
	}
	w.rings[rl] = struct{}{}
	return true
}

func (w *Worker) untrackRing(rl *ringLink) {
	w.connsMu.Lock()
	delete(w.rings, rl)
	w.connsMu.Unlock()
}
