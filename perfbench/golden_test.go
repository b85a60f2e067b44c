package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"datacutter/internal/dataset"
	"datacutter/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current program")

// TestGoldenTables checks every quick-scale paper table against its golden
// text (with -update, rewrites the golden text).
func TestGoldenTables(t *testing.T) {
	golden := goldenTables()
	for _, id := range experiments.IDs() {
		res, err := experiments.Run(id, experiments.Quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got := res.String()
		if *update {
			if err := os.WriteFile(filepath.Join("golden", "paper-sim", id+".txt"), []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got != golden[id] {
			t.Errorf("%s: %s", id, firstDiff(got, golden[id]))
		}
	}
}

// TestGoldenImages checks the serial replay of every rendering workload's
// default-seed views against the golden hashes (with -update, rewrites
// them).
func TestGoldenImages(t *testing.T) {
	if testing.Short() {
		t.Skip("renders full-size frames")
	}
	dir := t.TempDir()
	st, err := dataset.Create(dir, plumeMeta)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	hashes := map[string][]string{}
	for _, s := range renderSpecs {
		if s.Meta != plumeMeta {
			t.Fatalf("%s reads another dataset than plumeMeta", s.Name)
		}
		b := &renderBench{spec: s, dir: dir, views: s.views(defaultSeed), seed: defaultSeed}
		if *update {
			b.seed = 0 // compute the hashes without checking them
		}
		if err := b.prepare(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		b.close()
		hashes[s.Name] = b.want
	}
	if *update {
		raw, err := json.MarshalIndent(hashes, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("golden", "render.json"), append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
