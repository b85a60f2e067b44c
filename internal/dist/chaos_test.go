package dist_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/dist"
	"datacutter/internal/faults"
	"datacutter/internal/geom"
	"datacutter/internal/isoviz"
	"datacutter/internal/leakcheck"
	"datacutter/internal/mcubes"
	"datacutter/internal/obs"
	"datacutter/internal/render"
	"datacutter/internal/volume"
)

// Chaos tests: deterministic fault injection (internal/faults) against the
// full detection → abort → replan → retry machinery. CI's test job runs
// them with the rest of the race suite and archives the coordinator metrics
// dumps on failure.

// startChaosWorkers is startWorkers with per-host fault plans installed
// before Serve (SetFaults must precede the first accepted connection).
func startChaosWorkers(t *testing.T, n int, plans map[string]string) (map[string]string, map[string]*dist.Worker) {
	t.Helper()
	addrs := make(map[string]string, n)
	workers := make(map[string]*dist.Worker, n)
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("host%d", i)
		w, err := dist.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if spec := plans[host]; spec != "" {
			plan, err := faults.ParsePlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			w.SetFaults(plan.Injector())
		}
		go w.Serve()
		addrs[host] = w.Addr()
		workers[host] = w
		t.Cleanup(w.Close)
	}
	return addrs, workers
}

// coordObserver builds a coordinator-side observer over a fresh registry and
// arranges for the registry to be dumped to $CHAOS_METRICS_DIR at cleanup
// (the CI test job archives that directory when it fails).
func coordObserver(t *testing.T) (*obs.Observer, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	t.Cleanup(func() {
		dir := os.Getenv("CHAOS_METRICS_DIR")
		if dir == "" {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("chaos metrics dir: %v", err)
			return
		}
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Logf("chaos metrics dump: %v", err)
			return
		}
		name := strings.ReplaceAll(t.Name(), "/", "_") + ".json"
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Logf("chaos metrics write: %v", err)
		}
	})
	return obs.New(nil, reg), reg
}

// suicideSource writes n ints on stream "b", killing its victim worker
// (Params: n, then the victim's address; see registerVictim) after the
// second write. On a retried unit of work the victim is already dead (Kill
// is idempotent), so the replanned copy completes the stream.
type suicideSource struct {
	core.BaseFilter
	n int
	w *dist.Worker
}

func (s *suicideSource) Process(ctx core.Ctx) error {
	for i := 0; i < s.n; i++ {
		if err := ctx.Write("b", core.Buffer{Payload: i, Size: 8}); err != nil {
			return err
		}
		if i == 1 && s.w != nil {
			s.w.Kill()
		}
	}
	return nil
}

// twoStreamSink drains stream "ints" fully, then stream "b".
type twoStreamSink struct {
	core.BaseFilter
	SumA, SumB, SeenB int
}

func (s *twoStreamSink) Process(ctx core.Ctx) error {
	for {
		b, ok := ctx.Read("ints")
		if !ok {
			break
		}
		s.SumA += b.Payload.(int)
	}
	for {
		b, ok := ctx.Read("b")
		if !ok {
			break
		}
		s.SeenB++
		s.SumB += b.Payload.(int)
	}
	return nil
}

func init() {
	dist.RegisterFilter("test.suicidesrc", func(params []byte) (core.Filter, error) {
		return &suicideSource{n: int(params[0]), w: victim(params[1:])}, nil
	})
	dist.RegisterFilter("test.twosink", func([]byte) (core.Filter, error) {
		return &twoStreamSink{}, nil
	})
}

// TestChaosDeadHostDetectedWhileGatherWaitsElsewhere is the regression test
// for the liveness sweep: host2's only filter is a producer, so after it
// dies no survivor ever touches its sockets again (nothing writes to it,
// and its producer-done never arrives), while the sink host — gathered
// FIRST in sorted order — stays healthy, heartbeating, and blocked forever
// on the missing stream. Detection must come from sweeping host2's link
// while waiting on host0, not from the host currently being gathered.
func TestChaosDeadHostDetectedWhileGatherWaitsElsewhere(t *testing.T) {
	leakcheck.Check(t)
	addrs, workers := startChaosWorkers(t, 3, nil)
	const n = 30
	g := dist.GraphSpec{
		Filters: []dist.FilterSpec{
			{Name: "S1", Kind: "test.source", Params: []byte{n}},
			{Name: "S2", Kind: "test.suicidesrc", Params: append([]byte{n}, registerVictim(t, workers["host2"])...)},
			{Name: "K", Kind: "test.twosink"},
		},
		Streams: []core.StreamSpec{
			{Name: "ints", From: "S1", To: "K"},
			{Name: "b", From: "S2", To: "K"},
		},
	}
	o, reg := coordObserver(t)
	done := make(chan error, 1)
	go func() {
		_, err := dist.RunObserved(addrs, g, []dist.PlacementEntry{
			{Filter: "K", Host: "host0", Copies: 1},
			{Filter: "S1", Host: "host1", Copies: 1},
			{Filter: "S2", Host: "host2", Copies: 1},
		}, dist.Options{
			MaxUOWRetries:     2,
			HeartbeatInterval: 100 * time.Millisecond,
			HeartbeatMisses:   5,
		}, nil, o)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("coordinator never noticed the dead producer host: gather stuck on a healthy blocked host")
	}
	if err != nil {
		t.Fatalf("run did not recover from dead producer host: %v", err)
	}
	if v := reg.Counter("coord.hosts_lost").Value(); v < 1 {
		t.Fatalf("coord.hosts_lost = %d, want >= 1", v)
	}
	if v := reg.Counter("coord.uow_retries").Value(); v < 1 {
		t.Fatalf("coord.uow_retries = %d, want >= 1", v)
	}
	sink := workers["host0"].Instances("K")[0].(*twoStreamSink)
	if sink.SeenB != n || sink.SumB != n*(n-1)/2 || sink.SumA != n*(n-1)/2 {
		t.Fatalf("sink state after recovery: %+v", sink)
	}
}

// TestChaosKillMidUOWRecovers is the acceptance scenario: a seeded kill
// directive crashes a worker mid-unit-of-work (hard-closed sockets, no
// farewell), the coordinator detects it, aborts the survivors, replans the
// dead host's filter copies onto a survivor already running that filter, and
// the retried unit of work renders the byte-identical isosurface image.
func TestChaosKillMidUOWRecovers(t *testing.T) {
	leakcheck.Check(t)
	p := isoviz.FieldREParams{Seed: 17, Plumes: 4, GX: 33, GY: 33, GZ: 33, BX: 3, BY: 3, BZ: 3}
	view := isoviz.View{Timestep: 1, Iso: 0.35, Width: 96, Height: 96, Camera: geom.DefaultCamera()}

	// Fault-free reference render, same chunked source.
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

	// host1 (raster copies only) dies after receiving its 5th data frame.
	addrs, workers := startChaosWorkers(t, 3, map[string]string{
		"host1": "kill=data:5",
	})
	spec, err := isoviz.DistGraphField(p, isoviz.ZBuffer)
	if err != nil {
		t.Fatal(err)
	}
	o, reg := coordObserver(t)
	_, err = dist.RunObserved(addrs, spec, []dist.PlacementEntry{
		{Filter: "RE", Host: "host0", Copies: 2},
		{Filter: "Ra", Host: "host1", Copies: 2},
		{Filter: "Ra", Host: "host2", Copies: 1},
		{Filter: "M", Host: "host2", Copies: 1},
	}, dist.Options{
		Policy:            "DD",
		MaxUOWRetries:     2,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMisses:   5,
	}, []any{view}, o)
	if err != nil {
		t.Fatalf("run did not recover from worker kill: %v", err)
	}
	m, err := isoviz.MergeResult(workers["host2"].Instances("M"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Result() == nil || !m.Result().Equal(want) {
		t.Fatal("recovered render differs from fault-free reference")
	}
	if n := reg.Counter("coord.uow_retries").Value(); n < 1 {
		t.Fatalf("coord.uow_retries = %d, want >= 1", n)
	}
	if n := reg.Counter("coord.hosts_lost").Value(); n < 1 {
		t.Fatalf("coord.hosts_lost = %d, want >= 1", n)
	}
}

// TestChaosWedgeDetectedByHeartbeats freezes (rather than crashes) a worker:
// its sockets stay open but heartbeats and frame handling stall, the failure
// mode only liveness tracking can see. The coordinator must miss heartbeats,
// declare the host dead, and finish the work on the replanned survivors.
func TestChaosWedgeDetectedByHeartbeats(t *testing.T) {
	leakcheck.Check(t)
	addrs, workers := startChaosWorkers(t, 3, map[string]string{
		"host1": "wedge=data:3:1500ms",
	})
	const n = 200
	o, reg := coordObserver(t)
	_, err := dist.RunObserved(addrs, intGraph(n), []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host1", Copies: 1},
		{Filter: "K", Host: "host2", Copies: 1},
	}, dist.Options{
		MaxUOWRetries:     2,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMisses:   4,
	}, nil, o)
	if err != nil {
		t.Fatalf("run did not recover from wedged worker: %v", err)
	}
	if misses := reg.Counter("dist.heartbeat_misses").Value(); misses == 0 {
		t.Fatal("dist.heartbeat_misses = 0: wedge was not detected via liveness")
	}
	if retries := reg.Counter("coord.uow_retries").Value(); retries < 1 {
		t.Fatalf("coord.uow_retries = %d, want >= 1", retries)
	}
	// host1's copy was replanned onto host2 (the surviving K host); the
	// retried unit of work must have delivered everything there.
	seen, sum := 0, 0
	for _, inst := range workers["host2"].Instances("K") {
		k := inst.(*intSink)
		seen += k.Seen
		sum += k.Sum
	}
	if seen != n || sum != n*(n-1)/2 {
		t.Fatalf("replanned sinks saw %d (sum %d), want %d (sum %d)", seen, sum, n, n*(n-1)/2)
	}
}

// TestChaosDialRetry injects dial failures on the coordinator side: the
// shared dialRetry path must back off, count redials, and connect once the
// injected failures are spent.
func TestChaosDialRetry(t *testing.T) {
	leakcheck.Check(t)
	addrs, workers := startChaosWorkers(t, 2, nil)
	plan, err := faults.ParsePlan("faildial=2")
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	o, reg := coordObserver(t)
	_, err = dist.RunObserved(addrs, intGraph(n), []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host1", Copies: 1},
	}, dist.Options{DialAttempts: 4}.WithFaults(plan.Injector()), nil, o)
	if err != nil {
		t.Fatalf("run did not survive injected dial failures: %v", err)
	}
	if redials := reg.Counter("dist.redials").Value(); redials < 2 {
		t.Fatalf("dist.redials = %d, want >= 2", redials)
	}
	sink := workers["host1"].Instances("K")[0].(*intSink)
	if sink.Seen != n {
		t.Fatalf("sink saw %d, want %d", sink.Seen, n)
	}
}

// TestChaosDropFrame drops exactly the 5th data frame sent on the "ints"
// stream: the run completes (frame loss is not a transport error) and the
// sink is short by precisely that frame's payload.
func TestChaosDropFrame(t *testing.T) {
	leakcheck.Check(t)
	addrs, workers := startChaosWorkers(t, 2, map[string]string{
		"host0": "drop=ints:5",
	})
	const n = 40
	_, err := dist.Run(addrs, intGraph(n), []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host1", Copies: 1},
	}, dist.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := workers["host1"].Instances("K")[0].(*intSink)
	// The 5th frame sent carries payload 4.
	if sink.Seen != n-1 || sink.Sum != n*(n-1)/2-4 {
		t.Fatalf("sink saw %d (sum %d), want %d (sum %d)", sink.Seen, sink.Sum, n-1, n*(n-1)/2-4)
	}
}

// TestChaosDupAndDelayFrame duplicates the 5th data frame and delays the
// 10th; with a single producer and a single consumer the send sequence is
// deterministic, so the surplus is exactly the duplicated payload.
func TestChaosDupAndDelayFrame(t *testing.T) {
	leakcheck.Check(t)
	addrs, workers := startChaosWorkers(t, 2, map[string]string{
		"host0": "dup=ints:5; delay=ints:10:50ms",
	})
	const n = 40
	_, err := dist.Run(addrs, intGraph(n), []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host1", Copies: 1},
	}, dist.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := workers["host1"].Instances("K")[0].(*intSink)
	if sink.Seen != n+1 || sink.Sum != n*(n-1)/2+4 {
		t.Fatalf("sink saw %d (sum %d), want %d (sum %d)", sink.Seen, sink.Sum, n+1, n*(n-1)/2+4)
	}
}
