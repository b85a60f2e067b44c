package core

import (
	"sync"
	"testing"
	"time"

	"datacutter/internal/elastic"
	"datacutter/internal/leakcheck"
	"datacutter/internal/obs"
)

// TestScaleScheduleRescalesBetweenUOWs drives a 3-UOW pipeline through a
// seeded scale-up then scale-down of the doubler's copy set and checks
// conservation of all deliveries plus the emitted elastic metrics/events.
func TestScaleScheduleRescalesBetweenUOWs(t *testing.T) {
	leakcheck.Check(t)
	g, got := pipelineGraph(100)
	pl := NewPlacement().
		Place("S", "h0", 1).
		Place("D", "h0", 1).
		Place("D", "h1", 1).
		Place("C", "h0", 1)
	ring := obs.NewRingSink(8192)
	o := obs.New(ring, nil)
	r, err := NewRunner(g, pl, Options{
		UOWs: []any{0, 1, 2},
		Obs:  o,
		ScaleSchedule: []elastic.ScaleStep{
			{BeforeUOW: 1, Filter: "D", Host: "h1", Copies: 3}, // scale up
			{BeforeUOW: 2, Filter: "D", Host: "h1", Copies: 1}, // scale down
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 3 * 100; len(*got) != want {
		t.Fatalf("collected %d values across 3 UOWs, want %d", len(*got), want)
	}
	reg := o.Registry()
	if v := reg.Counter(elastic.MetricCopiesAdded).Value(); v != 2 {
		t.Fatalf("copies_added = %d, want 2", v)
	}
	if v := reg.Counter(elastic.MetricCopiesRemoved).Value(); v != 2 {
		t.Fatalf("copies_removed = %d, want 2", v)
	}
	if v := reg.Gauge(elastic.GaugeCopysetSize + ".D.h1").Value(); v != 1 {
		t.Fatalf("copyset_size gauge = %d, want 1", v)
	}
	var ups, downs int
	for _, e := range ring.Events() {
		switch e.Kind {
		case obs.KindScaleUp:
			ups++
			if e.Filter != "D" || e.Host != "h1" || e.Copy != 3 || e.UOW != 1 {
				t.Fatalf("scale-up event: %+v", e)
			}
		case obs.KindScaleDown:
			downs++
			if e.Copy != 1 || e.UOW != 2 {
				t.Fatalf("scale-down event: %+v", e)
			}
		}
	}
	if ups != 1 || downs != 1 {
		t.Fatalf("scale events up=%d down=%d, want 1/1", ups, downs)
	}
	// The runner's copies reflect the final effective plan.
	if n := len(r.Instances("D")); n != 2 {
		t.Fatalf("final D instances = %d, want 2", n)
	}
}

func TestScaleScheduleValidation(t *testing.T) {
	g, _ := pipelineGraph(1)
	pl := NewPlacement().Place("S", "h0", 1).Place("D", "h0", 1).Place("C", "h0", 1)
	r, err := NewRunner(g, pl, Options{ScaleSchedule: []elastic.ScaleStep{
		{BeforeUOW: 1, Filter: "nope", Host: "h0", Copies: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("unknown filter in scale schedule accepted")
	}
	r, err = NewRunner(g, pl, Options{ScaleSchedule: []elastic.ScaleStep{
		{BeforeUOW: 0, Filter: "D", Host: "h0", Copies: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("BeforeUOW 0 accepted")
	}
}

// slowCopy sleeps per buffer so one copy set lags and stealing matters.
type slowCopy struct {
	BaseFilter
	in, out string
	slow    time.Duration
	host    string // sleep only on this host
}

func (f *slowCopy) Process(ctx Ctx) error {
	for {
		b, ok := ctx.Read(f.in)
		if !ok {
			return nil
		}
		if ctx.Host() == f.host && f.slow > 0 {
			time.Sleep(f.slow)
		}
		if err := ctx.Write(f.out, Buffer{Payload: b.Payload, Size: b.Size}); err != nil {
			return err
		}
	}
}

// TestWorkStealingDrainsHotQueue runs a two-host middle stage where one
// host is pathologically slow; with stealing on, the fast host's copies
// drain the slow host's backlog and every buffer still arrives exactly
// once.
func TestWorkStealingDrainsHotQueue(t *testing.T) {
	leakcheck.Check(t)
	const n = 200
	var mu sync.Mutex
	got := &[]int{}
	g := NewGraph()
	g.AddFilter("S", func() Filter { return &source{n: n, stream: "in"} })
	g.AddFilter("W", func() Filter { return &slowCopy{in: "in", out: "out", slow: 2 * time.Millisecond, host: "slow"} })
	g.AddFilter("C", func() Filter { return &sharedCollector{in: "out", mu: &mu, got: got} })
	g.Connect("S", "W", "in")
	g.Connect("W", "C", "out")
	pl := NewPlacement().
		Place("S", "fast", 1).
		Place("W", "slow", 1).
		Place("W", "fast", 2).
		Place("C", "fast", 1)
	r, err := NewRunner(g, pl, Options{StealWork: true, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	mu.Lock()
	count := len(*got)
	seen := make(map[int]int, count)
	for _, v := range *got {
		seen[v]++
	}
	mu.Unlock()
	if count != n {
		t.Fatalf("collected %d, want %d (lost or duplicated by stealing)", count, n)
	}
	for v, k := range seen {
		if k != 1 {
			t.Fatalf("value %d delivered %d times", v, k)
		}
	}
	// Without stealing, RR sends half the buffers to the slow host:
	// >= 100 * 2ms = 200ms serialized. With stealing the fast copies take
	// most of the backlog; leave slack for scheduler noise.
	if elapsed > 150*time.Millisecond {
		t.Logf("note: stealing run took %v (scheduler-dependent)", elapsed)
	}
}

// TestElasticControllerQueuesScaleUp runs a hot pipeline with the live
// controller and verifies it proposed a scale-up applied at a later
// work-cycle boundary, within budget.
func TestElasticControllerQueuesScaleUp(t *testing.T) {
	leakcheck.Check(t)
	const n = 60
	var mu sync.Mutex
	got := &[]int{}
	g := NewGraph()
	g.AddFilter("S", func() Filter { return &source{n: n, stream: "in"} })
	g.AddFilter("W", func() Filter { return &slowCopy{in: "in", out: "out", slow: time.Millisecond, host: "h0"} })
	g.AddFilter("C", func() Filter { return &sharedCollector{in: "out", mu: &mu, got: got} })
	g.Connect("S", "W", "in")
	g.Connect("W", "C", "out")
	pl := NewPlacement().
		Place("S", "h0", 1).
		Place("W", "h0", 1).
		Place("C", "h0", 1)
	o := obs.New(obs.NewRingSink(64), nil)
	r, err := NewRunner(g, pl, Options{
		UOWs:     []any{0, 1, 2},
		QueueCap: 4,
		Obs:      o,
		Elastic: &elastic.Config{
			MaxCopies: 3,
			Budget:    5,
			Interval:  2 * time.Millisecond,
			// Sources have no input queue; only W and C are candidates.
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 3*n {
		t.Fatalf("collected %d, want %d", len(*got), 3*n)
	}
	// The slow W queue (cap 4) saturates; the controller must have scaled
	// something up by the end, and never past the budget.
	total := 0
	for _, name := range g.Filters() {
		total += len(r.Instances(name))
	}
	if added := o.Registry().Counter(elastic.MetricCopiesAdded).Value(); added < 1 {
		t.Fatalf("controller never scaled up (copies_added = %d)", added)
	}
	if total > 5 {
		t.Fatalf("total copies %d exceed budget 5", total)
	}
}
