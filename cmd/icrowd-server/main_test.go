package main

import (
	"encoding/gob"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"icrowd/internal/core"
	"icrowd/internal/ppr"
	"icrowd/internal/task"
)

// TestBasisCacheRecomputesVersion2 pins the upgrade path of the -basis
// cache: a file in the version-2 wire format (map-encoded vectors) is
// refused by ppr.Load, and the server recomputes the basis and rewrites
// the cache in the current format.
func TestBasisCacheRecomputesVersion2(t *testing.T) {
	ds := task.ProductMatching()
	path := filepath.Join(t.TempDir(), "basis.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	v2 := struct {
		Version int
		Opts    ppr.Options
		Vecs    []map[int]float64
		Res     []ppr.Result
	}{Version: 2, Opts: ppr.DefaultOptions(), Vecs: make([]map[int]float64, ds.Len()), Res: make([]ppr.Result, ds.Len())}
	for i := range v2.Vecs {
		v2.Vecs[i] = map[int]float64{i: 0.5}
		v2.Res[i] = ppr.Result{Converged: true}
	}
	if err := gob.NewEncoder(f).Encode(v2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := ppr.LoadFile(path); err == nil {
		t.Fatal("ppr.LoadFile accepted a version-2 basis")
	}

	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	got, err := loadOrBuildBasis(path, ds, core.DefaultBasisConfig(), logger)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.BuildBasis(ds, core.DefaultBasisConfig())
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := ppr.LoadFile(path)
	if err != nil {
		t.Fatalf("cache not rewritten in the current format: %v", err)
	}
	for i := 0; i < ds.Len(); i++ {
		w := want.Vec(i)
		for _, b := range []*ppr.Basis{got, reloaded} {
			r := b.Vec(i)
			if r.Len() != w.Len() {
				t.Fatalf("vector %d: %d entries, want %d", i, r.Len(), w.Len())
			}
			for k := range w.Idx {
				if r.Idx[k] != w.Idx[k] || r.Val[k] != w.Val[k] {
					t.Fatalf("vector %d entry %d differs from a fresh precompute", i, k)
				}
			}
		}
	}
	// The rewritten cache now loads as is.
	if again, err := loadOrBuildBasis(path, ds, core.DefaultBasisConfig(), logger); err != nil || again.Vec(0).Len() != want.Vec(0).Len() {
		t.Fatalf("second start: %v", err)
	}
}
