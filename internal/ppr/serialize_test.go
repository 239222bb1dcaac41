package ppr

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestBasisSaveLoadRoundTrip(t *testing.T) {
	g := table1Graph(t)
	orig, err := Precompute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != orig.N() || got.NNZ() != orig.NNZ() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.N(), got.NNZ(), orig.N(), orig.NNZ())
	}
	if got.Options() != orig.Options() {
		t.Fatal("options mismatch")
	}
	for i := 0; i < orig.N(); i++ {
		identicalRows(t, i, orig.Vec(i), got.Vec(i))
	}
	// Convergence state survives the round trip: a loaded basis must not
	// report truncated solves as converged (or vice versa).
	for i := 0; i < orig.N(); i++ {
		if got.SolveResult(i) != orig.SolveResult(i) {
			t.Fatalf("vector %d: SolveResult %+v vs %+v after round trip",
				i, got.SolveResult(i), orig.SolveResult(i))
		}
	}
	if got.Converged() != orig.Converged() {
		t.Fatal("Converged() changed after round trip")
	}
	// Combination results are identical.
	q := map[int]float64{0: 1, 5: 0.5}
	a, b := orig.Combine(q), got.Combine(q)
	for k, v := range a {
		if b[k] != v {
			t.Fatal("combine differs after round trip")
		}
	}
}

func TestBasisSaveLoadFile(t *testing.T) {
	g := table1Graph(t)
	orig, err := Precompute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "basis.gob")
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != orig.N() {
		t.Fatal("file round trip changed the basis")
	}
	// A partial basis keeps its unsolved seeds unsolved.
	partial, err := PrecomputePartial(g, DefaultOptions(), []int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := partial.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if got, err = LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Missing(), partial.Missing()) {
		t.Fatalf("Missing() = %v after round trip, want %v", got.Missing(), partial.Missing())
	}
	identicalRows(t, 5, partial.Vec(5), got.Vec(5))
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	if _, err := Load(strings.NewReader("not gob at all")); err == nil {
		t.Fatal("garbage should error")
	}
	// Wrong version.
	var buf bytes.Buffer
	g := table1Graph(t)
	b, _ := Precompute(g, DefaultOptions())
	_ = b.Save(&buf)
	// Flip the version by writing a fresh wire with version 99 via the
	// exported API is not possible; corrupt by truncation instead.
	raw := buf.Bytes()
	if _, err := Load(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated stream should error")
	}
}

// TestLoadRejectsVersion2 pins the wire-format bump: a version-2 basis
// (map-encoded vectors) is refused with a version error, so a cache written
// by an older build is recomputed rather than misread.
func TestLoadRejectsVersion2(t *testing.T) {
	type basisWireV2 struct {
		Version int
		Opts    Options
		Vecs    []map[int]float64
		Res     []Result
	}
	var buf bytes.Buffer
	v2 := basisWireV2{
		Version: 2,
		Opts:    DefaultOptions(),
		Vecs:    []map[int]float64{{0: 0.5, 1: 0.1}, {1: 0.5}},
		Res:     []Result{{Converged: true}, {Converged: true}},
	}
	if err := gob.NewEncoder(&buf).Encode(v2); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("Load of a v2 basis: err = %v, want a version error", err)
	}
}

// TestLoadRejectsMalformedRows covers the row checks: every row must pair
// each index with a value, stay in range, and ascend strictly.
func TestLoadRejectsMalformedRows(t *testing.T) {
	for name, r := range map[string]Row{
		"length mismatch": {Idx: []int32{0, 1}, Val: []float64{0.5}},
		"out of range":    {Idx: []int32{0, 2}, Val: []float64{0.5, 0.1}},
		"negative index":  {Idx: []int32{-1, 0}, Val: []float64{0.1, 0.5}},
		"not ascending":   {Idx: []int32{1, 0}, Val: []float64{0.1, 0.5}},
		"duplicate":       {Idx: []int32{0, 0}, Val: []float64{0.5, 0.1}},
		"value above 1":   {Idx: []int32{0}, Val: []float64{1.5}},
	} {
		var buf bytes.Buffer
		wire := basisWire{
			Version: wireVersion,
			Opts:    DefaultOptions(),
			Rows:    []Row{r, {Idx: []int32{1}, Val: []float64{0.5}}},
			Res:     make([]Result, 2),
		}
		if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Fatalf("%s: Load accepted a malformed row", name)
		}
	}
}
