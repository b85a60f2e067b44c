package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"datacutter/internal/dataset"
)

// tinyMeta is a dataset small enough for a unit test.
var tinyMeta = dataset.Meta{
	GX: 33, GY: 33, GZ: 25, BX: 4, BY: 4, BZ: 3,
	Timesteps: 2, Files: 2, Seed: 2002, Plumes: 5,
}

// tinyWorkloads are the benchmark's workloads at test size, run through the
// same set-up, oracle, loop and report code as the full ones.
func tinyWorkloads() []workload {
	ws := []workload{workloads["paper-sim"]}
	for _, s := range renderSpecs {
		s.Name += "-tiny"
		s.Meta = tinyMeta
		s.Size = 64
		ws = append(ws, workload{Name: s.Name, setup: s.setup})
	}
	return ws
}

func TestTinyWorkloads(t *testing.T) {
	for _, w := range tinyWorkloads() {
		for _, trace := range []bool{false, true} {
			res, err := run(w, config{
				Seed: 7, Measure: time.Millisecond, Trace: trace,
				Workdir: t.TempDir(), MinOps: 1,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d",
					w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

// TestCorruptedReferenceFails proves the oracle fires: with one reference
// output corrupted, exactly the ops of that kind fail and are counted.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, w := range tinyWorkloads() {
		inst, _, err := setUp(w, t.TempDir(), 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.prepare(); err != nil {
			t.Fatal(err)
		}
		switch b := inst.(type) {
		case *renderBench:
			b.want[0] = strings.Replace(b.want[0], "-", "-0", 1)
		case *simBench:
			id := b.ids[0]
			b.golden[id] = strings.Replace(b.golden[id], "\n", "\nextra line\n", 1)
		}
		tl := &tally{}
		if _, err := loop(inst, rand.New(rand.NewSource(1)), 0, 0, tl, os.Stderr); err != nil {
			t.Fatal(err)
		}
		inst.close()
		if tl.failed != 1 || tl.attempted != inst.kinds() {
			t.Errorf("%s: %d of %d ops failed, want 1 of %d", w.Name, tl.failed, tl.attempted, inst.kinds())
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json is not beside the benchmark")
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d in the program", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s %s, program reports %v", i, m.Name, m.Unit, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	declared := map[string]string{}
	for _, m := range b.PerLayer {
		declared[m.Name] = m.Unit
	}
	if len(declared) != len(perLayer) {
		t.Errorf("%d per-layer metrics declared, %d reported", len(declared), len(perLayer))
	}
	for _, d := range perLayer {
		if declared[d.Name] != d.Unit {
			t.Errorf("per-layer %s: declared unit %q, reported %q", d.Name, declared[d.Name], d.Unit)
		}
		if !metricName.MatchString(d.Name) {
			t.Errorf("per-layer name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
	}
}
