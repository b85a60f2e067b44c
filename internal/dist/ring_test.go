package dist_test

import (
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/dist"
	"datacutter/internal/leakcheck"
	"datacutter/internal/obs"
)

// byteIdentitySource is the exact slice the byte source emits; the
// zero-copy test compares backing-array pointers against it.
var byteIdentitySource []byte

type byteSource struct{ core.BaseFilter }

func (s *byteSource) Process(ctx core.Ctx) error {
	return ctx.Write("blobs", core.Buffer{Payload: byteIdentitySource, Size: len(byteIdentitySource)})
}

type byteSink struct {
	core.BaseFilter
	got [][]byte
}

func (s *byteSink) Process(ctx core.Ctx) error {
	for {
		b, ok := ctx.Read("blobs")
		if !ok {
			return nil
		}
		s.got = append(s.got, b.Payload.([]byte))
	}
}

func init() {
	dist.RegisterFilter("test.bytesrc", func([]byte) (core.Filter, error) { return &byteSource{}, nil })
	dist.RegisterFilter("test.bytesink", func([]byte) (core.Filter, error) { return &byteSink{}, nil })
}

// TestRingTransportDelivers runs the cross-host pipeline with the ring
// transport forced on and checks delivery, stats, and that the data plane
// really went over rings (rx ring counter up, rx TCP path identical counts).
func TestRingTransportDelivers(t *testing.T) {
	leakcheck.Check(t)
	addrs, workers := startWorkers(t, 2)

	regs := map[string]*obs.Registry{}
	for host, w := range workers {
		reg := obs.NewRegistry()
		o := obs.New(nil, reg)
		w.SetObserver(o)
		regs[host] = reg
	}

	const n = 200
	st, err := dist.Run(addrs, intGraph(n), []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host1", Copies: 1},
	}, dist.Options{Transport: dist.TransportRing}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := workers["host1"].Instances("K")[0].(*intSink)
	if sink.Seen != n || sink.Sum != n*(n-1)/2 {
		t.Fatalf("sink saw %d (sum %d), want %d", sink.Seen, sink.Sum, n)
	}
	if st.Streams["ints"].Buffers != n {
		t.Fatalf("stats buffers = %d", st.Streams["ints"].Buffers)
	}
	if got := regs["host1"].Counter("dist.rx.ring_frames").Value(); got != n {
		t.Fatalf("host1 rx ring frames = %d, want %d (data plane not on rings?)", got, n)
	}
	if got := regs["host1"].Counter("dist.rx.data_frames").Value(); got != n {
		t.Fatalf("host1 rx data frames = %d, want %d", got, n)
	}
}

// TestRingTransportAcksAndMultiUOW exercises demand-driven acks riding the
// reverse ring and per-UOW state resets across three units of work.
func TestRingTransportAcksAndMultiUOW(t *testing.T) {
	leakcheck.Check(t)
	addrs, workers := startWorkers(t, 3)
	const n = 120
	st, err := dist.Run(addrs, intGraph(n), []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host1", Copies: 2},
		{Filter: "K", Host: "host2", Copies: 1},
	}, dist.Options{Policy: "DD", Transport: dist.TransportAuto}, []any{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, host := range []string{"host0", "host1", "host2"} {
		for _, inst := range workers[host].Instances("K") {
			total += inst.(*intSink).Seen
		}
	}
	if total != 3*n {
		t.Fatalf("delivered %d of %d buffers across 3 UOWs", total, 3*n)
	}
	if st.Streams["ints"].Acks == 0 {
		t.Fatal("DD produced no acknowledgments over rings")
	}
}

// TestRingTransportZeroCopyIdentity pins the transport's defining property:
// the consumer receives the producer's payload value itself — same backing
// array, no codec round-trip. (TCP necessarily copies; the ring must not.)
func TestRingTransportZeroCopyIdentity(t *testing.T) {
	leakcheck.Check(t)
	addrs, workers := startWorkers(t, 2)
	src := make([]byte, 1024)
	for i := range src {
		src[i] = byte(i)
	}
	byteIdentitySource = src
	st, err := dist.Run(addrs, dist.GraphSpec{
		Filters: []dist.FilterSpec{
			{Name: "S", Kind: "test.bytesrc"},
			{Name: "K", Kind: "test.bytesink"},
		},
		Streams: []core.StreamSpec{{Name: "blobs", From: "S", To: "K"}},
	}, []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host1", Copies: 1},
	}, dist.Options{Transport: dist.TransportRing}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Streams["blobs"].Buffers != 1 {
		t.Fatalf("buffers = %d", st.Streams["blobs"].Buffers)
	}
	sink := workers["host1"].Instances("K")[0].(*byteSink)
	if len(sink.got) != 1 {
		t.Fatalf("sink holds %d payloads", len(sink.got))
	}
	if &sink.got[0][0] != &src[0] {
		t.Fatal("payload was copied in transit: ring transport must deliver by reference")
	}
}

// TestRingTransportRejectsBadName pins Options validation.
func TestRingTransportRejectsBadName(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	_, err := dist.Run(addrs, intGraph(5), []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host0", Copies: 1},
	}, dist.Options{Transport: "carrier-pigeon"}, nil)
	if err == nil {
		t.Fatal("bogus Transport accepted")
	}
}

// TestRingTransportWorkerCloseSevers checks that closing a worker while a
// peer holds a ring link to it does not strand the peer: teardown severs
// the rings exactly like TCP conns, and the run surfaces an error instead
// of hanging.
func TestRingTransportWorkerCloseSevers(t *testing.T) {
	addrs, workers := startWorkers(t, 2)
	g := dist.GraphSpec{
		Filters: []dist.FilterSpec{
			{Name: "S", Kind: "test.source", Params: []byte{200}},
			{Name: "K", Kind: "test.suicide", Params: registerVictim(t, workers["host1"])},
		},
		Streams: []core.StreamSpec{{Name: "ints", From: "S", To: "K"}},
	}
	_, err := dist.Run(addrs, g, []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host1", Copies: 1},
	}, dist.Options{Transport: dist.TransportRing}, nil)
	if err == nil {
		t.Fatal("run against a mid-stream-killed ring peer reported success")
	}
}
