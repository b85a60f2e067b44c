package dist_test

import (
	"testing"
	"time"

	"datacutter/internal/dist"
	"datacutter/internal/obs"
)

// TestDistributedObservedRun attaches observers to both workers and the
// coordinator and checks that frame counters, trace events, and coordinator
// metrics reflect the cross-host traffic.
func TestDistributedObservedRun(t *testing.T) {
	addrs, workers := startWorkers(t, 2)

	rings := map[string]*obs.RingSink{}
	regs := map[string]*obs.Registry{}
	for host, w := range workers {
		ring := obs.NewRingSink(8192)
		reg := obs.NewRegistry()
		o := obs.New(ring, reg)
		o.SetClock(obs.NewWallClock())
		w.SetObserver(o)
		rings[host] = ring
		regs[host] = reg
	}

	coordReg := obs.NewRegistry()
	coordObs := obs.New(nil, coordReg)

	const n = 100
	st, err := dist.RunObserved(addrs, intGraph(n), []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host1", Copies: 1},
	}, dist.Options{Policy: "DD"}, nil, coordObs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Streams["ints"].Buffers != n {
		t.Fatalf("stats buffers = %d", st.Streams["ints"].Buffers)
	}

	// All n buffers cross host0 -> host1: sender counts tx frames, receiver
	// counts rx frames.
	if got := regs["host0"].Counter("dist.tx.data_frames").Value(); got != n {
		t.Fatalf("host0 tx data frames = %d, want %d", got, n)
	}
	if got := regs["host1"].Counter("dist.rx.data_frames").Value(); got != n {
		t.Fatalf("host1 rx data frames = %d, want %d", got, n)
	}
	if got := regs["host1"].Counter("dist.rx.data_bytes").Value(); got != n*8 {
		t.Fatalf("host1 rx data bytes = %d, want %d", got, n*8)
	}
	// DD acks flow back host1 -> host0.
	if regs["host1"].Counter("dist.tx.ack_frames").Value() == 0 {
		t.Fatal("host1 sent no ack frames under DD")
	}
	// The last acks may still be on the wire when Run returns (the producer
	// host's session can end first); host0 must count them on arrival.
	for deadline := time.Now().Add(5 * time.Second); regs["host0"].Counter("dist.rx.ack_frames").Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("host0 received no ack frames under DD")
		}
	}

	// Trace events: producer emits pick+send on host0, consumer enqueue on
	// host1; both hosts bracket Process.
	count := func(host string, k obs.Kind) int {
		c := 0
		for _, e := range rings[host].Events() {
			if e.Kind == k {
				c++
			}
		}
		return c
	}
	if got := count("host0", obs.KindSend); got != n {
		t.Fatalf("host0 send events = %d, want %d", got, n)
	}
	if got := count("host1", obs.KindEnqueue); got != n {
		t.Fatalf("host1 enqueue events = %d, want %d", got, n)
	}
	for _, host := range []string{"host0", "host1"} {
		if count(host, obs.KindProcessStart) != 1 || count(host, obs.KindProcessEnd) != 1 {
			t.Fatalf("%s process bracket events missing", host)
		}
	}

	// Coordinator-side metrics.
	if got := coordReg.Histogram("coord.uow_seconds").Count(); got != 1 {
		t.Fatalf("coord uow histogram count = %d", got)
	}
	if got := coordReg.Gauge("coord.stream.ints.buffers").Value(); got != n {
		t.Fatalf("coord buffers gauge = %d, want %d", got, n)
	}
}

// TestDistributedRunNilObserver pins Run == RunObserved(nil).
func TestDistributedRunNilObserver(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	st, err := dist.RunObserved(addrs, intGraph(10), []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host0", Copies: 1},
	}, dist.Options{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Streams["ints"].Buffers != 10 {
		t.Fatalf("buffers = %d", st.Streams["ints"].Buffers)
	}
}
