package dist_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/dist"
	"datacutter/internal/geom"
	"datacutter/internal/isoviz"
	"datacutter/internal/leakcheck"
	"datacutter/internal/mcubes"
	"datacutter/internal/render"
	"datacutter/internal/volume"
)

// ---- Minimal registered test filters ----

type intSource struct {
	core.BaseFilter
	n int
}

func (s *intSource) Process(ctx core.Ctx) error {
	for i := 0; i < s.n; i++ {
		if err := ctx.Write("ints", core.Buffer{Payload: i, Size: 8}); err != nil {
			return err
		}
	}
	return nil
}

type intSink struct {
	core.BaseFilter
	Sum  int
	Seen int
}

func (s *intSink) Process(ctx core.Ctx) error {
	for {
		b, ok := ctx.Read("ints")
		if !ok {
			return nil
		}
		s.Seen++
		s.Sum += b.Payload.(int)
	}
}

type failingFilter struct{ core.BaseFilter }

func (f *failingFilter) Process(ctx core.Ctx) error {
	ctx.Read("ints")
	return errors.New("synthetic worker failure")
}

func init() {
	dist.RegisterFilter("test.source", func(params []byte) (core.Filter, error) {
		n := int(params[0])
		return &intSource{n: n}, nil
	})
	dist.RegisterFilter("test.sink", func([]byte) (core.Filter, error) { return &intSink{}, nil })
	dist.RegisterFilter("test.fail", func([]byte) (core.Filter, error) { return &failingFilter{}, nil })
	dist.RegisterFilter("test.suicide", func(params []byte) (core.Filter, error) {
		return &suicideSink{w: victim(params)}, nil
	})
}

// suicideTargets maps a worker address to the worker a suicide filter kills.
// Each test registers its own victim and passes the address through the
// filter's Params, so the worker that builds the filter learns its target
// through the map's synchronization — never through a shared package
// variable ordered only by a TCP connection the race detector cannot see.
var suicideTargets sync.Map

// registerVictim makes w a suicide target for the test's duration and
// returns the filter Params naming it.
func registerVictim(t *testing.T, w *dist.Worker) []byte {
	suicideTargets.Store(w.Addr(), w)
	t.Cleanup(func() { suicideTargets.Delete(w.Addr()) })
	return []byte(w.Addr())
}

// victim resolves a registered target from filter Params (nil if none).
func victim(params []byte) *dist.Worker {
	if w, ok := suicideTargets.Load(string(params)); ok {
		return w.(*dist.Worker)
	}
	return nil
}

// startWorkers launches n in-process workers on ephemeral localhost ports,
// named host0..host<n-1>.
func startWorkers(t *testing.T, n int) (map[string]string, map[string]*dist.Worker) {
	t.Helper()
	addrs := make(map[string]string, n)
	workers := make(map[string]*dist.Worker, n)
	for i := 0; i < n; i++ {
		w, err := dist.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		host := fmt.Sprintf("host%d", i)
		addrs[host] = w.Addr()
		workers[host] = w
		t.Cleanup(w.Close)
	}
	return addrs, workers
}

func intGraph(n int) dist.GraphSpec {
	return dist.GraphSpec{
		Filters: []dist.FilterSpec{
			{Name: "S", Kind: "test.source", Params: []byte{byte(n)}},
			{Name: "K", Kind: "test.sink"},
		},
		Streams: []core.StreamSpec{{Name: "ints", From: "S", To: "K"}},
	}
}

func TestDistributedPipelineDelivers(t *testing.T) {
	leakcheck.Check(t)
	addrs, workers := startWorkers(t, 2)
	const n = 200
	st, err := dist.Run(addrs, intGraph(n), []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host1", Copies: 1},
	}, dist.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := workers["host1"].Instances("K")[0].(*intSink)
	if sink.Seen != n {
		t.Fatalf("sink saw %d buffers, want %d", sink.Seen, n)
	}
	if sink.Sum != n*(n-1)/2 {
		t.Fatalf("sum = %d", sink.Sum)
	}
	if st.Streams["ints"].Buffers != n {
		t.Fatalf("stats buffers = %d", st.Streams["ints"].Buffers)
	}
}

func TestDistributedCopiesAcrossHostsEveryPolicy(t *testing.T) {
	for _, pol := range []string{"RR", "WRR", "DD", "DD/4"} {
		t.Run(pol, func(t *testing.T) {
			addrs, workers := startWorkers(t, 3)
			const n = 120
			st, err := dist.Run(addrs, intGraph(n), []dist.PlacementEntry{
				{Filter: "S", Host: "host0", Copies: 1},
				{Filter: "K", Host: "host0", Copies: 1},
				{Filter: "K", Host: "host1", Copies: 2},
				{Filter: "K", Host: "host2", Copies: 1},
			}, dist.Options{Policy: pol}, nil)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, host := range []string{"host0", "host1", "host2"} {
				for _, inst := range workers[host].Instances("K") {
					total += inst.(*intSink).Seen
				}
			}
			if total != n {
				t.Fatalf("delivered %d of %d buffers", total, n)
			}
			per := st.Streams["ints"].PerTargetHost
			sum := int64(0)
			for _, v := range per {
				sum += v
			}
			if sum != n {
				t.Fatalf("per-target sum = %d: %v", sum, per)
			}
			if pol == "WRR" && (per["host1"] != 2*per["host0"] || per["host1"] != 2*per["host2"]) {
				t.Fatalf("WRR proportions wrong: %v", per)
			}
			if pol == "DD" || pol == "DD/4" {
				if st.Streams["ints"].Acks == 0 {
					t.Fatal("DD produced no acknowledgments")
				}
			}
		})
	}
}

func TestDistributedMultiUOW(t *testing.T) {
	leakcheck.Check(t)
	addrs, workers := startWorkers(t, 2)
	_, err := dist.Run(addrs, intGraph(30), []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host1", Copies: 1},
	}, dist.Options{}, []any{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	sink := workers["host1"].Instances("K")[0].(*intSink)
	if sink.Seen != 90 {
		t.Fatalf("sink saw %d across 3 UOWs, want 90", sink.Seen)
	}
}

func TestDistributedFilterErrorSurfaces(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	g := dist.GraphSpec{
		Filters: []dist.FilterSpec{
			{Name: "S", Kind: "test.source", Params: []byte{50}},
			{Name: "F", Kind: "test.fail"},
		},
		Streams: []core.StreamSpec{{Name: "ints", From: "S", To: "F"}},
	}
	_, err := dist.Run(addrs, g, []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "F", Host: "host1", Copies: 1},
	}, dist.Options{}, nil)
	if err == nil {
		t.Fatal("worker-side filter error not surfaced")
	}
}

func TestDistributedUnknownKindRejected(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	g := dist.GraphSpec{
		Filters: []dist.FilterSpec{{Name: "X", Kind: "test.unregistered"}},
	}
	_, err := dist.Run(addrs, g, []dist.PlacementEntry{{Filter: "X", Host: "host0", Copies: 1}}, dist.Options{}, nil)
	if err == nil {
		t.Fatal("unknown filter kind accepted")
	}
}

func TestDistributedMissingWorkerAddress(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	_, err := dist.Run(addrs, intGraph(1), []dist.PlacementEntry{
		{Filter: "S", Host: "ghost", Copies: 1},
		{Filter: "K", Host: "host0", Copies: 1},
	}, dist.Options{}, nil)
	if err == nil {
		t.Fatal("placement on unknown host accepted")
	}
}

// The flagship distributed test: the full isosurface pipeline spread over
// three worker processes renders the exact reference image.
func TestDistributedIsosurfaceRender(t *testing.T) {
	p := isoviz.FieldREParams{Seed: 17, Plumes: 4, GX: 33, GY: 33, GZ: 33, BX: 3, BY: 3, BZ: 3}
	view := isoviz.View{Timestep: 1, Iso: 0.35, Width: 96, Height: 96, Camera: geom.DefaultCamera()}

	// Reference: direct rendering of the same chunked source.
	src := isoviz.NewFieldSource(volume.NewPlumeField(p.Seed, p.Plumes), p.GX, p.GY, p.GZ, p.BX, p.BY, p.BZ)
	want := render.NewZBuffer(view.Width, view.Height)
	rr := render.NewRaster(view.Camera, view.Width, view.Height)
	for i := 0; i < src.Chunks(); i++ {
		v, err := src.Load(i, view.Timestep)
		if err != nil {
			t.Fatal(err)
		}
		mcubes.Walk(v, view.Iso, func(tr geom.Triangle) { rr.Draw(tr, want) })
	}

	for _, alg := range []isoviz.Algorithm{isoviz.ActivePixel, isoviz.ZBuffer} {
		t.Run(alg.String(), func(t *testing.T) {
			leakcheck.Check(t)
			addrs, workers := startWorkers(t, 3)
			spec, err := isoviz.DistGraphField(p, alg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := dist.Run(addrs, spec, []dist.PlacementEntry{
				{Filter: "RE", Host: "host0", Copies: 2},
				{Filter: "Ra", Host: "host1", Copies: 2},
				{Filter: "Ra", Host: "host2", Copies: 1},
				{Filter: "M", Host: "host2", Copies: 1},
			}, dist.Options{Policy: "DD"}, []any{view})
			if err != nil {
				t.Fatal(err)
			}
			m, err := isoviz.MergeResult(workers["host2"].Instances("M"))
			if err != nil {
				t.Fatal(err)
			}
			if m.Result() == nil || !m.Result().Equal(want) {
				t.Fatal("distributed render differs from reference")
			}
			if st.Streams[isoviz.StreamTriangles].Buffers == 0 {
				t.Fatal("no triangle traffic recorded")
			}
		})
	}
}

// A worker dying mid-run must surface as a coordinator error, not a hang.
func TestDistributedWorkerDeathSurfaces(t *testing.T) {
	leakcheck.Check(t)
	addrs, workers := startWorkers(t, 2)
	g := dist.GraphSpec{
		Filters: []dist.FilterSpec{
			{Name: "S", Kind: "test.source", Params: []byte{200}},
			{Name: "K", Kind: "test.suicide", Params: registerVictim(t, workers["host1"])},
		},
		Streams: []core.StreamSpec{{Name: "ints", From: "S", To: "K"}},
	}
	done := make(chan error, 1)
	go func() {
		_, err := dist.Run(addrs, g, []dist.PlacementEntry{
			{Filter: "S", Host: "host0", Copies: 1},
			{Filter: "K", Host: "host1", Copies: 1},
		}, dist.Options{}, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("worker death produced no error")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("coordinator hung after worker death")
	}
}

type suicideSink struct {
	core.BaseFilter
	w    *dist.Worker
	seen int
}

func (s *suicideSink) Process(ctx core.Ctx) error {
	for {
		_, ok := ctx.Read("ints")
		if !ok {
			return nil
		}
		s.seen++
		if s.seen == 5 {
			s.w.Close()
		}
	}
}

// Stress: many buffers through tiny queues across three hosts under DD —
// exercising TCP backpressure and ack flow without deadlock.
func TestDistributedTinyQueueStress(t *testing.T) {
	leakcheck.Check(t)
	addrs, workers := startWorkers(t, 3)
	const n = 250
	_, err := dist.Run(addrs, intGraph(n), []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host1", Copies: 1},
		{Filter: "K", Host: "host2", Copies: 1},
	}, dist.Options{Policy: "DD", QueueCap: 1}, []any{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, host := range []string{"host0", "host1", "host2"} {
		for _, inst := range workers[host].Instances("K") {
			total += inst.(*intSink).Seen
		}
	}
	if total != 2*n {
		t.Fatalf("delivered %d of %d", total, 2*n)
	}
}

// A second coordinator hitting a busy worker must be refused, and the
// worker must accept a fresh session after the first completes.
func TestDistributedWorkerRefusesConcurrentSession(t *testing.T) {
	addrs, workers := startWorkers(t, 2)

	// Occupy host0 with a session that stays open (slow sink holds it).
	started := make(chan struct{})
	go func() {
		close(started)
		_, _ = dist.Run(addrs, intGraph(200), []dist.PlacementEntry{
			{Filter: "S", Host: "host0", Copies: 1},
			{Filter: "K", Host: "host1", Copies: 1},
		}, dist.Options{}, []any{0, 1, 2, 3, 4})
	}()
	<-started
	// Race a competing coordinator repeatedly; every attempt must either be
	// refused ("busy") or succeed cleanly after the first finished — never
	// corrupt state.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, err := dist.Run(map[string]string{"host0": addrs["host0"]}, intGraph(5),
			[]dist.PlacementEntry{
				{Filter: "S", Host: "host0", Copies: 1},
				{Filter: "K", Host: "host0", Copies: 1},
			}, dist.Options{}, nil)
		if err == nil {
			// First session finished; ours ran cleanly on the freed worker.
			if sinks := workers["host0"].Instances("K"); len(sinks) == 0 {
				t.Fatal("no sink instance after successful second session")
			}
			return
		}
	}
	t.Fatal("second session never succeeded after the first ended")
}
