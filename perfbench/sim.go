package main

import (
	"fmt"
	"strings"
	"time"

	"datacutter/internal/dataset"
	"datacutter/internal/experiments"
	"datacutter/internal/isoviz"
)

// simBench regenerates the paper's tables and figures on the simulated
// engine. One op is one experiments.Run(id, Quick) call; its output must
// equal the committed golden text, since simulated runs are deterministic.
type simBench struct {
	ids       []string
	golden    map[string]string
	p         *probe
	opSeconds float64 // traced op time
	probe     time.Duration
	probes    int
}

// simSetup sets the workload up: the simulated engine has no storage or
// workers to start, so set-up is one golden-checked sweep of every
// experiment before the first timed op.
func simSetup(_ string, _ int64) (instance, error) {
	s := &simBench{ids: experiments.IDs(), golden: goldenTables()}
	for k := range s.ids {
		if _, err := s.op(k); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *simBench) kinds() int     { return len(s.ids) }
func (s *simBench) prepare() error { return nil } // the golden text is the reference
func (s *simBench) close()         { experiments.SetObserver(nil) }

func (s *simBench) op(k int) (time.Duration, error) {
	id := s.ids[k]
	var tr *tracer
	if s.p != nil {
		tr = s.p.tr
		tr.startOp()
	}
	root := tr.begin("op", id)
	sp := tr.begin("experiments", "experiments.Run")
	t0 := time.Now()
	res, err := experiments.Run(id, experiments.Quick)
	d := time.Since(t0)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return d, fmt.Errorf("%s: %w", id, err)
	}
	want, ok := s.golden[id]
	if !ok {
		return d, fmt.Errorf("%s: no golden text", id)
	}
	if got := res.String(); got != want {
		return d, fmt.Errorf("%s: output differs from golden text: %s", id, firstDiff(got, want))
	}
	if s.p != nil {
		s.opSeconds += d.Seconds()
		if k == 0 {
			s.probeWorkload(tr)
		}
	}
	return d, nil
}

// probeWorkload times the isosurface workload estimator every experiment
// builds its model from (one timestep of the quick paper dataset), once per
// sweep of the traced phase.
func (s *simBench) probeWorkload(tr *tracer) {
	ds, err := dataset.New(dataset.Meta{
		GX: 129, GY: 129, GZ: 97, BX: 8, BY: 8, BZ: 6,
		Timesteps: 10, Files: 64, Seed: 2002, Plumes: 5,
	})
	if err != nil {
		return
	}
	sp := tr.begin("isoviz", "Workload.TotalTris")
	t0 := time.Now()
	isoviz.NewWorkload(ds, 1.0).TotalTris(0)
	s.probe += time.Since(t0)
	tr.end(sp)
	s.probes++
}

func (s *simBench) observe(p *probe) error {
	s.p = p
	experiments.SetObserver(p.o)
	return nil
}

func (s *simBench) profile(ops int) map[string]metric {
	m := zeroLayers()
	var bufs int64
	for _, name := range s.p.reg.Names() {
		if strings.HasPrefix(name, "simrt.stream.") && strings.HasSuffix(name, ".buffers") {
			bufs += s.p.reg.Counter(name).Value()
		}
	}
	set(m, "simrt.buffers", float64(bufs)/float64(ops))
	set(m, "simrt.buffers_per_s", float64(bufs)/s.opSeconds)
	if s.probes > 0 {
		set(m, "isoviz.workload_stats_ms", float64(s.probe)/1e6/float64(s.probes))
	}
	return m
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "identical"
}
