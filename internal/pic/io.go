package pic

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"

	"snowcat/internal/ctgraph"
	"snowcat/internal/nn"
)

// Encode serialises the model (architecture, weights, vocabulary, tuned
// threshold) with encoding/gob. Training caches are not serialised.
func (m *Model) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, fmt.Errorf("pic: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// ErrBadModel reports model bytes that do not decode to a usable model:
// malformed gob, a missing layer, or a parameter whose shape disagrees
// with the model's configuration.
var ErrBadModel = errors.New("pic: bad model")

// Decode reconstructs a model serialised by Encode. Bytes that do not
// decode to a complete, consistently shaped model return an error
// wrapping ErrBadModel, so a hostile or truncated file cannot reach the
// inference paths.
func Decode(data []byte) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, fmt.Errorf("%w: decode: %w", ErrBadModel, err)
	}
	if err := m.bind(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadModel, err)
	}
	return &m, nil
}

// bind checks that every layer New builds is present and that every
// parameter has the shape Cfg.Dim and the vocabulary imply, with its
// value, gradient and moment buffers sized to match. It then rebuilds the
// cached views gob left behind, before the model can reach the concurrent
// inference paths.
func (m *Model) bind() error {
	d := m.Cfg.Dim
	if d <= 0 || m.Vocab == nil || m.Enc == nil || m.Enc.Vocab == nil || m.Enc.Emb == nil ||
		m.Enc.Out == nil || m.VType == nil || m.HintRole == nil || m.HintPos == nil ||
		m.HintCtx == nil || m.Head == nil {
		return fmt.Errorf("missing layer or dim %d", d)
	}
	v := m.Vocab.Size()
	if v <= nn.MaskID || m.Enc.Vocab.Size() != v {
		return fmt.Errorf("vocabulary of %d tokens (encoder %d)", v, m.Enc.Vocab.Size())
	}
	type shape struct {
		p          *nn.Param
		rows, cols int
	}
	dense := func(l *nn.Dense, in, out int) []shape { return []shape{{l.W, in, out}, {l.B, 1, out}} }
	want := []shape{
		{m.Enc.Emb.Table, v, d},
		{m.VType.Table, ctgraph.NumVertexTypes, d},
		{m.HintRole.Table, numHintRoles, d},
		{m.HintPos.Table, maxHintSlots * posBuckets, d},
	}
	want = append(want, dense(m.Enc.Out, d, v)...)
	want = append(want, dense(m.HintCtx, d, d)...)
	want = append(want, dense(m.Head, d, 1)...)
	if m.DFHead != nil {
		want = append(want, dense(m.DFHead, 2*d, 1)...)
	}
	for i, l := range m.GCN {
		if l == nil || l.In != d || l.Out != d || len(l.WRel) != NumRelations {
			return fmt.Errorf("GCN layer %d malformed", i)
		}
		want = append(want, shape{l.WSelf, d, d}, shape{l.B, 1, d})
		for _, w := range l.WRel {
			want = append(want, shape{w, d, d})
		}
	}
	for _, s := range want {
		if s.p == nil {
			return errors.New("missing parameter")
		}
		n := s.rows * s.cols
		if s.p.Rows != s.rows || s.p.Cols != s.cols ||
			len(s.p.Val) != n || len(s.p.Grad) != n || len(s.p.M) != n || len(s.p.V) != n {
			return fmt.Errorf("parameter %q is %d×%d with %d values, want %d×%d",
				s.p.Name, s.p.Rows, s.p.Cols, len(s.p.Val), s.rows, s.cols)
		}
	}
	m.Vocab.Rebind()
	for _, s := range want {
		s.p.Rebind()
	}
	return nil
}

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadFile reads a model written by SaveFile.
func LoadFile(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pic: load: %w", err)
	}
	return Decode(data)
}

// Clone returns a deep copy of the model via serialisation; used to fork a
// base model before fine-tuning variants (§5.4's PIC-6.ft.* family).
func (m *Model) Clone() (*Model, error) {
	data, err := m.Encode()
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
