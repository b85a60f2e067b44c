package isoviz

import (
	"fmt"
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/leakcheck"
)

func runPartitioned(t *testing.T, bands int, copiesPerBand int, view View) (*core.Stats, *MergeFilter) {
	t.Helper()
	src := testSource()
	spec := PartitionedSpec{Bands: bands, Source: src, Assign: AssignByCopy(src.Chunks())}
	g := spec.Build()
	pl := core.NewPlacement().Place("RE", "h0", 2).Place("M", "h0", 1)
	for i := 0; i < bands; i++ {
		pl.Place(BandFilterName(i), "h0", copiesPerBand)
		if copiesPerBand > 1 {
			// Spread hybrid copies over a second host too.
			pl.Place(BandFilterName(i), "h1", 1)
		}
	}
	r, err := core.NewRunner(g, pl, core.Options{Policy: core.DemandDriven(), UOWs: []any{view}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	m, err := MergeResult(r.Instances("M"))
	if err != nil {
		t.Fatal(err)
	}
	return st, m
}

// The hybrid pipeline must produce the exact reference image for any band
// count, including bands that do not divide the height, and with
// replication within bands.
func TestPartitionedPipelineExact(t *testing.T) {
	leakcheck.Check(t)
	src := testSource()
	view := testView(90) // 90 not divisible by 4 or 7
	want := renderReference(t, src, view)
	for _, bands := range []int{1, 2, 4, 7} {
		for _, copies := range []int{1, 2} {
			t.Run(fmt.Sprintf("bands=%d copies=%d", bands, copies), func(t *testing.T) {
				_, m := runPartitioned(t, bands, copies, view)
				if !m.Result().Equal(want) {
					t.Fatal("partitioned image differs from reference")
				}
			})
		}
	}
}

// The point of partitioning (paper §6: "the merge filter becomes a
// bottleneck" as copies grow): the replicated z-buffer pipeline ships
// copies x full frame to the merge filter, while the partitioned pipeline
// ships each winning pixel once — its merge traffic does not grow with
// parallelism.
func TestPartitionedReducesMergeTraffic(t *testing.T) {
	leakcheck.Check(t)
	src := testSource()
	view := testView(128)
	const par = 6

	// Replicated z-buffer: par full-screen raster copies, par frames.
	spec := PipelineSpec{Config: ReadExtract, Alg: ZBuffer, Source: src, Assign: AssignByCopy(src.Chunks())}
	pl := core.NewPlacement().Place("RE", "h0", 2).Place("Ra", "h0", par).Place("M", "h0", 1)
	r, err := core.NewRunner(spec.Build(), pl, core.Options{Policy: core.RoundRobin(), UOWs: []any{view}})
	if err != nil {
		t.Fatal(err)
	}
	stRep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	repBytes := stRep.Streams[StreamPixels].Bytes
	wantRep := int64(par * view.Width * view.Height * 7)
	if repBytes != wantRep {
		t.Fatalf("replicated z-buffer traffic = %d, want %d", repBytes, wantRep)
	}

	// Partitioned: par bands, one copy each.
	stPart, _ := runPartitioned(t, par, 1, view)
	var partBytes int64
	for i := 0; i < par; i++ {
		partBytes += stPart.Streams[PixBandStream(i)].Bytes
	}
	if partBytes*4 >= repBytes {
		t.Fatalf("partitioned merge traffic (%d B) should be far below replicated z-buffer (%d B)", partBytes, repBytes)
	}
}

// Band routing duplicates only triangles that straddle band borders: total
// routed triangles stay well below bands x extracted.
func TestPartitionedRoutingDuplicationBounded(t *testing.T) {
	leakcheck.Check(t)
	src := testSource()
	view := testView(96)
	st, _ := runPartitioned(t, 8, 1, view)
	var routed int64
	for i := 0; i < 8; i++ {
		routed += st.Streams[TriBandStream(i)].Bytes
	}
	// Reference extraction count.
	ref := renderReference(t, src, view) // ensures scene non-trivial
	_ = ref
	spec := PipelineSpec{Config: ReadExtract, Alg: ActivePixel, Source: src, Assign: AssignByCopy(src.Chunks())}
	pl := core.NewPlacement().Place("RE", "h0", 1).Place("Ra", "h0", 1).Place("M", "h0", 1)
	r, _ := core.NewRunner(spec.Build(), pl, core.Options{UOWs: []any{view}})
	stRep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	base := stRep.Streams[StreamTriangles].Bytes
	if routed > base*3 {
		t.Fatalf("routing tripled triangle traffic: %d vs base %d", routed, base)
	}
	if routed < base {
		t.Fatalf("routing lost triangles: %d vs base %d", routed, base)
	}
}

func TestPartitionedBadBandCount(t *testing.T) {
	leakcheck.Check(t)
	src := testSource()
	view := testView(32)
	// A routing stage with Bands < 1 has nowhere to send triangles, which
	// must surface as a run error.
	g := core.NewGraph()
	g.AddFilter("RE", func() core.Filter {
		return &Stage{From: Read, To: Extract, Source: src, Assign: AssignByCopy(src.Chunks()), Bands: 0}
	})
	pl := core.NewPlacement().Place("RE", "h0", 1)
	r, _ := core.NewRunner(g, pl, core.Options{UOWs: []any{view}})
	if _, err := r.Run(); err == nil {
		t.Fatal("zero bands accepted")
	}
}
