package core_test

import (
	"fmt"
	"sync"
	"testing"

	"datacutter/internal/cluster"
	"datacutter/internal/core"
	"datacutter/internal/elastic"
	"datacutter/internal/leakcheck"
	"datacutter/internal/sim"
	"datacutter/internal/simrt"
)

// rescaleRunner is the public surface both engines' runners share.
type rescaleRunner interface {
	Instances(name string) []core.Filter
	Run() (*core.Stats, error)
	Stats() *core.Stats
}

// indexRecorder records the (unit of work, copy index, total copies) every
// Init of this instance saw, and forwards buffers from in to out (when set).
type indexRecorder struct {
	in, out string
	n       int // buffers a source emits per unit of work
	mu      *sync.Mutex
	got     *int
	seen    []string
}

func (f *indexRecorder) Init(ctx core.Ctx) error {
	f.seen = append(f.seen, fmt.Sprintf("uow%d:%d/%d", ctx.UOW(), ctx.CopyIndex(), ctx.TotalCopies()))
	return nil
}

func (f *indexRecorder) Process(ctx core.Ctx) error {
	if f.in == "" {
		for i := 0; i < f.n; i++ {
			if err := ctx.Write(f.out, core.Buffer{Payload: i, Size: 8}); err != nil {
				return err
			}
		}
		return nil
	}
	for {
		b, ok := ctx.Read(f.in)
		if !ok {
			return nil
		}
		if f.out == "" {
			f.mu.Lock()
			*f.got++
			f.mu.Unlock()
			continue
		}
		if err := ctx.Write(f.out, b); err != nil {
			return err
		}
	}
}

func (f *indexRecorder) Finalize(core.Ctx) error { return nil }

// TestRescalePreservesUntouchedInstances checks, on every engine, that a
// rescale of one filter leaves other filters' instances (and their
// accumulated state) alone, that surviving slots of the scaled filter keep
// their instances and indices, and that spawned copies join with the right
// global index and total.
func TestRescalePreservesUntouchedInstances(t *testing.T) {
	engines := []struct {
		name string
		new  func(g *core.Graph, pl *core.Placement, uows []any, steps []elastic.ScaleStep) (rescaleRunner, error)
	}{
		{"core", func(g *core.Graph, pl *core.Placement, uows []any, steps []elastic.ScaleStep) (rescaleRunner, error) {
			return core.NewRunner(g, pl, core.Options{UOWs: uows, ScaleSchedule: steps})
		}},
		{"simrt", func(g *core.Graph, pl *core.Placement, uows []any, steps []elastic.ScaleStep) (rescaleRunner, error) {
			cl := cluster.New(sim.NewKernel())
			cl.AddHost(cluster.HostSpec{Name: "h0", Cores: 1, Speed: 1, NICBandwidth: 100e6,
				Disks: []cluster.DiskSpec{{SeekSeconds: 0.001, Bandwidth: 50e6}}})
			return simrt.NewRunner(g, pl, cl, simrt.Options{UOWs: uows, ScaleSchedule: steps})
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			leakcheck.Check(t)
			var mu sync.Mutex
			got := 0
			g := core.NewGraph()
			g.AddFilter("S", func() core.Filter { return &indexRecorder{out: "nums", n: 10} })
			g.AddFilter("D", func() core.Filter { return &indexRecorder{in: "nums", out: "fwd"} })
			g.AddFilter("C", func() core.Filter { return &indexRecorder{in: "fwd", mu: &mu, got: &got} })
			g.Connect("S", "D", "nums")
			g.Connect("D", "C", "fwd")
			pl := core.NewPlacement().Place("S", "h0", 1).Place("D", "h0", 2).Place("C", "h0", 1)
			r, err := eng.new(g, pl, []any{0, 1}, []elastic.ScaleStep{{BeforeUOW: 1, Filter: "D", Host: "h0", Copies: 3}})
			if err != nil {
				t.Fatal(err)
			}
			srcBefore := r.Instances("S")[0]
			dBefore := r.Instances("D")
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if r.Instances("S")[0] != srcBefore {
				t.Fatal("untouched filter's instance was replaced")
			}
			d := r.Instances("D")
			if len(d) != 3 {
				t.Fatalf("D instances = %d, want 3", len(d))
			}
			for i, f := range dBefore {
				if d[i] != f {
					t.Fatalf("surviving D instance %d was replaced", i)
				}
			}
			want := [][]string{
				{"uow0:0/2", "uow1:0/3"},
				{"uow0:1/2", "uow1:1/3"},
				{"uow1:2/3"}, // spawned at the boundary
			}
			for i, f := range d {
				if s := f.(*indexRecorder).seen; fmt.Sprint(s) != fmt.Sprint(want[i]) {
					t.Fatalf("D instance %d saw %v, want %v", i, s, want[i])
				}
			}
			if s := srcBefore.(*indexRecorder).seen; fmt.Sprint(s) != "[uow0:0/1 uow1:0/1]" {
				t.Fatalf("S instance saw %v", s)
			}
			if got != 20 {
				t.Fatalf("collected %d, want 20", got)
			}
			// Stats series grew to the peak copy count.
			fs := r.Stats().Filters["D"]
			if fs.Copies != 3 || len(fs.BusySeconds) != 3 {
				t.Fatalf("stats: copies=%d busy=%d", fs.Copies, len(fs.BusySeconds))
			}
		})
	}
}
