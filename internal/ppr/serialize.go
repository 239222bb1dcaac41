package ppr

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
)

// basisWire is the stable gob representation of a Basis.
type basisWire struct {
	Version int
	Opts    Options
	Rows    []Row
	Res     []Result
}

// wireVersion guards against format drift between builds. Version 2 added
// the per-vector solve Results (version-1 artifacts predate convergence
// tracking and must not load as silently "converged"); version 3 stores
// each vector as a sorted sparse row instead of a map. Any other version is
// rejected, so a stale cache is recomputed rather than misread.
const wireVersion = 3

// Save serializes the basis (the offline artifact of Algorithm 1) so a
// server restart or a different process can skip the precomputation.
func (b *Basis) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(basisWire{
		Version: wireVersion,
		Opts:    b.opts,
		Rows:    b.rows,
		Res:     b.res,
	})
}

// SaveFile writes the basis to a file.
func (b *Basis) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return b.Save(f)
}

// Load deserializes a basis written by Save.
func Load(r io.Reader) (*Basis, error) {
	var wire basisWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("ppr: decoding basis: %w", err)
	}
	if wire.Version != wireVersion {
		return nil, fmt.Errorf("ppr: basis format version %d, want %d", wire.Version, wireVersion)
	}
	if err := wire.Opts.validate(); err != nil {
		return nil, err
	}
	if len(wire.Rows) == 0 {
		return nil, errors.New("ppr: basis has no vectors")
	}
	if len(wire.Res) != len(wire.Rows) {
		return nil, fmt.Errorf("ppr: basis has %d results for %d vectors", len(wire.Res), len(wire.Rows))
	}
	n := len(wire.Rows)
	for i, r := range wire.Rows {
		if len(r.Val) != len(r.Idx) {
			return nil, fmt.Errorf("ppr: basis vector %d has %d values for %d indices", i, len(r.Val), len(r.Idx))
		}
		for k, j := range r.Idx {
			if j < 0 || int(j) >= n {
				return nil, fmt.Errorf("ppr: basis vector %d references task %d of %d", i, j, n)
			}
			if k > 0 && j <= r.Idx[k-1] {
				return nil, fmt.Errorf("ppr: basis vector %d indices not ascending at task %d", i, j)
			}
			if x := r.Val[k]; !(x >= 0 && x <= 1) {
				return nil, fmt.Errorf("ppr: basis vector %d entry %d out of range: %v", i, j, x)
			}
		}
	}
	return &Basis{opts: wire.Opts, rows: wire.Rows, res: wire.Res}, nil
}

// LoadFile reads a basis from a file.
func LoadFile(path string) (*Basis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
