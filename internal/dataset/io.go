package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"errors"
	"fmt"
	"os"

	"snowcat/internal/ctgraph"
)

// Encode serialises the dataset with gob+gzip. Datasets are the expensive
// artifact of the pipeline — the paper spends hundreds of hours collecting
// them — so campaigns cache them on disk and reload instead of re-running
// dynamic executions.
func (d *Dataset) Encode() ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(d); err != nil {
		return nil, fmt.Errorf("dataset: encode: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("dataset: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// ErrBadDataset reports dataset bytes that do not decode to a usable
// dataset: corrupt gzip or gob data, a missing group, example or graph,
// labels that do not match the graph, or a vertex or edge out of range.
// Decode checks all of it, so a bad file fails on load instead of in
// Rebind or in the middle of training.
var ErrBadDataset = errors.New("dataset: bad dataset")

// Decode reconstructs a dataset serialised by Encode, validates it and
// restores the graphs' internal indices. Every failure wraps
// ErrBadDataset.
func Decode(data []byte) (*Dataset, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%w: decode: %w", ErrBadDataset, err)
	}
	var d Dataset
	if err := gob.NewDecoder(zr).Decode(&d); err != nil {
		return nil, fmt.Errorf("%w: decode: %w", ErrBadDataset, err)
	}
	if err := d.validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadDataset, err)
	}
	for _, g := range d.Groups {
		for _, ex := range g.Examples {
			ex.G.Rebind()
		}
	}
	return &d, nil
}

// validate checks what Rebind and training index by: every group, example
// and graph is present, each example carries one label per vertex and,
// when it has flow labels, one per inter-thread data-flow edge, and every
// vertex and edge is in range. Block IDs are only checked for sign: the
// kernel they index is not known here.
func (d *Dataset) validate() error {
	for gi, grp := range d.Groups {
		if grp == nil {
			return fmt.Errorf("group %d is nil", gi)
		}
		for ei, ex := range grp.Examples {
			if ex == nil || ex.G == nil {
				return fmt.Errorf("group %d example %d has no graph", gi, ei)
			}
			g := ex.G
			n := len(g.Vertices)
			if len(ex.Y) != n {
				return fmt.Errorf("group %d example %d: %d labels for %d vertices", gi, ei, len(ex.Y), n)
			}
			if ex.YFlow != nil && len(ex.YFlow) != g.EdgeCount(ctgraph.InterDF) {
				return fmt.Errorf("group %d example %d: %d flow labels for %d inter-thread edges",
					gi, ei, len(ex.YFlow), g.EdgeCount(ctgraph.InterDF))
			}
			for vi, v := range g.Vertices {
				if v.Block < 0 || v.Type >= ctgraph.NumVertexTypes {
					return fmt.Errorf("group %d example %d: vertex %d is %+v", gi, ei, vi, v)
				}
			}
			for i, e := range g.Edges {
				if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n || e.Type >= ctgraph.NumEdgeTypes {
					return fmt.Errorf("group %d example %d: edge %d %+v out of range for %d vertices", gi, ei, i, e, n)
				}
			}
		}
	}
	return nil
}

// SaveFile writes the dataset to path.
func (d *Dataset) SaveFile(path string) error {
	data, err := d.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadFile reads a dataset written by SaveFile.
func LoadFile(path string) (*Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: load: %w", err)
	}
	return Decode(data)
}
