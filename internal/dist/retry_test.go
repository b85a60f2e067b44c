package dist

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"datacutter/internal/exec"
	"datacutter/internal/leakcheck"
	"datacutter/internal/obs"
)

// refusedAddr returns a loopback address that refuses connections: the
// port was just allocated and released, so a dial fails immediately with
// ECONNREFUSED instead of timing out.
func refusedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestDialRetryFirstAttemptSucceeds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()

	reg := obs.NewRegistry()
	redials := reg.Counter("dist.redials")
	opts := &Options{DialAttempts: 3, DialTimeout: 2 * time.Second}
	c, err := dialRetry(ln.Addr().String(), opts, nil, redials, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if got := redials.Value(); got != 0 {
		t.Fatalf("redials = %d after a first-attempt success, want 0", got)
	}
}

// Three failing attempts sleep twice, with full jitter in [backoff/2,
// 3*backoff/2): [25ms,75ms) then [50ms,150ms). The total elapsed time must
// respect the deterministic lower bound (75ms) — proving the backoff
// actually waits — and a generous upper bound well under the unjittered
// worst case would ever allow (proving the cap and jitter keep retries
// prompt). Refused loopback dials themselves are effectively instant.
func TestDialRetryBackoffAndJitterBounds(t *testing.T) {
	reg := obs.NewRegistry()
	redials := reg.Counter("dist.redials")
	opts := &Options{DialAttempts: 3, DialTimeout: time.Second}

	start := time.Now()
	_, err := dialRetry(refusedAddr(t), opts, nil, redials, nil)
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("dialing a refused address succeeded")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("error does not report the attempt budget: %v", err)
	}
	if got := redials.Value(); got != 2 {
		t.Fatalf("redials = %d for 3 attempts, want 2", got)
	}
	if elapsed < 75*time.Millisecond {
		t.Fatalf("3 attempts finished in %v; backoff floor is 75ms", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("3 attempts took %v; jittered backoff should stay well under 2s", elapsed)
	}
}

// A nil redials counter must be safe: the worker peer mesh passes nil when
// observability is disabled.
func TestDialRetryNilCounter(t *testing.T) {
	opts := &Options{DialAttempts: 2, DialTimeout: time.Second}
	if _, err := dialRetry(refusedAddr(t), opts, nil, nil, nil); err == nil {
		t.Fatal("dialing a refused address succeeded")
	}
}

// Cancellation mid-backoff must return promptly instead of sleeping out the
// remaining attempts: a session being torn down closes failedCh and its
// peer dials must not linger.
func TestDialRetryCancelReturnsPromptly(t *testing.T) {
	addr := refusedAddr(t)
	opts := &Options{DialAttempts: 1000, DialTimeout: time.Second}
	cancel := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(cancel)
	}()

	start := time.Now()
	_, err := dialRetry(addr, opts, nil, nil, cancel)
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("cancelled dial succeeded")
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("error does not report cancellation: %v", err)
	}
	// 1000 attempts would sleep minutes; a prompt cancel returns within the
	// first couple of backoff windows.
	if elapsed > time.Second {
		t.Fatalf("cancelled dial returned after %v", elapsed)
	}
}

// A cancel channel that is already closed aborts during the first backoff:
// exactly one dial attempt happens.
func TestDialRetryCancelAlreadyClosed(t *testing.T) {
	addr := refusedAddr(t)
	opts := &Options{DialAttempts: 1000, DialTimeout: time.Second}
	cancel := make(chan struct{})
	close(cancel)

	_, err := dialRetry(addr, opts, nil, nil, cancel)
	if err == nil {
		t.Fatal("cancelled dial succeeded")
	}
	if !strings.Contains(err.Error(), "cancelled after 1 attempts") {
		t.Fatalf("want cancellation after exactly 1 attempt, got: %v", err)
	}
}

// closedLink is a peer link that only records its closing.
type closedLink struct{ closed bool }

func (l *closedLink) send(*frame) error { return nil }
func (l *closedLink) close()            { l.closed = true }

// Once endSession has closed a session's peer links, a late send from a
// phase goroutine still draining must not attach a new link: the link and
// its goroutines would leak until the worker dies. peer refuses without
// dialling, for a known host and a new one alike.
func TestPeerRefusedAfterClosePeers(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dialled := make(chan bool, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
		dialled <- err == nil
	}()

	old := &closedLink{}
	s := &session{
		setup: &setupMsg{Addrs: map[string]string{"a": ln.Addr().String(), "b": ln.Addr().String()}},
		peers: map[string]peerLink{"a": old},
		abort: exec.NewAbort(),
	}
	s.closePeers()
	if !old.closed {
		t.Fatal("closePeers left a link open")
	}
	for _, host := range []string{"a", "b"} {
		if _, err := s.peer(host); !errors.Is(err, errPeersClosed) {
			t.Fatalf("peer(%q) after closePeers: err = %v, want errPeersClosed", host, err)
		}
	}
	if len(s.peers) != 1 || s.peers["a"] != old {
		t.Fatalf("peers changed after closePeers: %v", s.peers)
	}
	ln.Close()
	if <-dialled {
		t.Fatal("peer dialled after closePeers")
	}
}
