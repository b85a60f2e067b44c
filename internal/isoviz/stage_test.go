package isoviz

import (
	"fmt"
	"reflect"
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/leakcheck"
)

// Every cut of the application moves a fixed real traffic per stream: one
// copy per filter, round robin, a 96x96 view of testSource and 4 KiB
// buffers. Each stage flushes at the end of every input unit, so RERa under
// Active Pixel ships its WPA once per chunk, like ERa.
func TestStageTrafficPerCut(t *testing.T) {
	leakcheck.Check(t)
	type traffic struct{ buffers, bytes int64 }
	voxels := traffic{27, 171500}
	tris := traffic{194, 746064}
	zFrame := traffic{1, 64512}
	cases := []struct {
		cfg  Config
		alg  Algorithm
		want map[string]traffic
	}{
		{FullPipeline, ZBuffer, map[string]traffic{StreamVoxels: voxels, StreamTriangles: tris, StreamPixels: zFrame}},
		{FullPipeline, ActivePixel, map[string]traffic{StreamVoxels: voxels, StreamTriangles: tris, StreamPixels: {191, 26715}}},
		{CombinedAll, ZBuffer, map[string]traffic{StreamPixels: zFrame}},
		{CombinedAll, ActivePixel, map[string]traffic{StreamPixels: {17, 26040}}},
		{ReadExtract, ZBuffer, map[string]traffic{StreamTriangles: tris, StreamPixels: zFrame}},
		{ReadExtract, ActivePixel, map[string]traffic{StreamTriangles: tris, StreamPixels: {191, 26715}}},
		{ExtractRaster, ZBuffer, map[string]traffic{StreamVoxels: voxels, StreamPixels: zFrame}},
		{ExtractRaster, ActivePixel, map[string]traffic{StreamVoxels: voxels, StreamPixels: {17, 26040}}},
	}
	src := testSource()
	view := testView(96)
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v/%v", c.cfg, c.alg), func(t *testing.T) {
			spec := PipelineSpec{Config: c.cfg, Alg: c.alg, Source: src, Assign: AssignByCopy(src.Chunks())}
			g := spec.Build()
			pl := core.NewPlacement()
			for _, f := range g.Filters() {
				pl.Place(f, "h0", 1)
			}
			_, st := runPipeline(t, spec, pl, core.Options{Policy: core.RoundRobin(), UOWs: []any{view}, BufferBytes: 4 << 10})
			got := map[string]traffic{}
			for _, s := range g.Streams() {
				got[s.Name] = traffic{st.Streams[s.Name].Buffers, st.Streams[s.Name].Bytes}
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("stream traffic = %v, want %v", got, c.want)
			}
		})
	}
}

// ModelSpec promises the same filter and stream names as PipelineSpec, so
// placements are interchangeable between the engines.
func TestModelGraphMatchesRealGraph(t *testing.T) {
	for _, cfg := range []Config{FullPipeline, CombinedAll, ReadExtract, ExtractRaster} {
		for _, alg := range []Algorithm{ZBuffer, ActivePixel} {
			realG := PipelineSpec{Config: cfg, Alg: alg}.Build()
			modelG := ModelSpec{Config: cfg, Alg: alg}.Build()
			if !reflect.DeepEqual(realG.Filters(), modelG.Filters()) {
				t.Errorf("%v/%v: filters real %v, model %v", cfg, alg, realG.Filters(), modelG.Filters())
			}
			if !reflect.DeepEqual(realG.Streams(), modelG.Streams()) {
				t.Errorf("%v/%v: streams real %v, model %v", cfg, alg, realG.Streams(), modelG.Streams())
			}
			if err := realG.Validate(); err != nil {
				t.Errorf("%v/%v: %v", cfg, alg, err)
			}
			roles := []string{cfg.SourceFilter()}
			if w := cfg.WorkerFilter(); w != "" {
				roles = append(roles, w)
			}
			for _, name := range roles {
				if realG.Factory(name) == nil {
					t.Errorf("%v/%v: role filter %q not in the graph %v", cfg, alg, name, realG.Filters())
				}
			}
		}
	}
}
