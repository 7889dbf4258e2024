package spca

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync/atomic"

	"spca/internal/checkpoint"
	"spca/internal/matrix"
)

// ErrDimMismatch is the typed sentinel under every projection-shape error:
// Transform/Reconstruct/ExplainedVariance inputs whose dimensions do not
// match the model's. Matchable with errors.Is.
var ErrDimMismatch = errors.New("spca: input dimensions do not match the model")

// Model is a fitted PCA model — the projection surface every consumer
// (Result, the model files, the serving registry, spcad) shares. It holds
// exactly the state projection needs: the principal directions, the
// centering mean, PPCA's noise variance, the spectrum when the algorithm
// computed one, and the seed the fit ran with (so a background re-fit can
// reproduce or perturb the original draw).
//
// A Model is immutable once in use: Transform caches the projection operator
// on first call, and concurrent Transforms after that are safe and
// allocation-free (the serving layer depends on both properties). Mutate the
// exported fields only before the first projection.
type Model struct {
	// Algorithm that produced this model.
	Algorithm Algorithm
	// Components holds the d principal directions as columns (D x d).
	Components *Dense
	// Mean is the column-mean vector the model centers with (length D).
	Mean []float64
	// NoiseVariance is PPCA's fitted ss (zero for the baselines). It selects
	// the projection: zero (or an orthonormal basis) projects orthogonally,
	// non-zero applies the PPCA posterior map C·(CᵀC + ss·I)⁻¹.
	NoiseVariance float64
	// SingularValues holds the estimated singular values of the centered
	// data for the SVD-flavoured algorithms (RSVD family, MahoutPCA); nil
	// for the EM family, which does not compute a spectrum.
	SingularValues []float64
	// Seed is the RNG seed of the fit that produced the model (zero for
	// models loaded from version-1 files, which predate the field).
	Seed uint64

	orthonormal bool // baselines produce orthonormal components

	// proj caches the projection operator (and the mean's image under it)
	// after the first Transform. Computed at most once per distinct winner of
	// the CAS; losers discard their copy, so every reader sees one coherent
	// pair and steady-state projection allocates nothing.
	proj atomic.Pointer[projection]
}

// projection is the cached linear map a Transform applies: p is C for
// orthogonal models or C·M⁻¹ for PPCA posterior-mean models, and meanP is
// meanᵀ·p, the row subtracted to center via mean propagation.
type projection struct {
	p     *Dense
	meanP []float64
}

// Dims returns the model's data dimensionality D and latent rank d.
func (m *Model) Dims() (dims, d int) { return m.Components.R, m.Components.C }

// projection returns the cached projection operator, computing it on first
// use: C for orthonormal or noise-free models, else the PPCA posterior map
// C·M⁻¹ with M = CᵀC + ss·I.
func (m *Model) projection() (*projection, error) {
	if pr := m.proj.Load(); pr != nil {
		return pr, nil
	}
	p := m.Components
	if !m.orthonormal && m.NoiseVariance != 0 {
		mm := m.Components.MulT(m.Components).AddScaledIdentity(m.NoiseVariance)
		minv, err := matrix.Inverse(mm)
		if err != nil {
			return nil, fmt.Errorf("spca: M = CᵀC+ss·I singular: %w", err)
		}
		p = m.Components.Mul(minv)
	}
	pr := &projection{p: p, meanP: p.MulVecT(m.Mean)}
	m.proj.CompareAndSwap(nil, pr)
	return m.proj.Load(), nil
}

// Transform projects rows of y onto the fitted components. For PPCA-family
// models this is the posterior-mean latent position; for the baselines it is
// the orthogonal projection (Y - mean) * C. It allocates the output and
// delegates to TransformInto.
func (m *Model) Transform(y *Sparse) (*Dense, error) {
	if y.C != m.Components.R {
		return nil, fmt.Errorf("%w: Transform input has %d columns, model expects %d", ErrDimMismatch, y.C, m.Components.R)
	}
	return m.transformInto(matrix.NewDense(y.R, m.Components.C), y)
}

// TransformInto projects rows of y into dst (dims y.R x d), overwriting it.
// After the first call on a model the projection operator is cached and the
// call performs no allocation — the form the serving hot path batches into.
func (m *Model) TransformInto(dst *Dense, y *Sparse) (*Dense, error) {
	if y.C != m.Components.R {
		return nil, fmt.Errorf("%w: Transform input has %d columns, model expects %d", ErrDimMismatch, y.C, m.Components.R)
	}
	if dst.R != y.R || dst.C != m.Components.C {
		return nil, fmt.Errorf("%w: Transform dst is %dx%d, want %dx%d", ErrDimMismatch, dst.R, dst.C, y.R, m.Components.C)
	}
	return m.transformInto(dst, y)
}

func (m *Model) transformInto(dst *Dense, y *Sparse) (*Dense, error) {
	pr, err := m.projection()
	if err != nil {
		return nil, err
	}
	return y.CenteredMulDenseInto(pr.p, dst, pr.meanP), nil
}

// TransformDense is Transform for a dense input matrix.
func (m *Model) TransformDense(y *Dense) (*Dense, error) {
	if y.C != m.Components.R {
		return nil, fmt.Errorf("%w: Transform input has %d columns, model expects %d", ErrDimMismatch, y.C, m.Components.R)
	}
	return m.TransformDenseInto(matrix.NewDense(y.R, m.Components.C), y)
}

// TransformDenseInto is TransformInto for a dense input matrix: one MulInto
// plus a demeaning pass, allocation-free after the projection cache warms.
// The serving batcher coalesces whole micro-batches into single calls here.
func (m *Model) TransformDenseInto(dst, y *Dense) (*Dense, error) {
	if y.C != m.Components.R {
		return nil, fmt.Errorf("%w: Transform input has %d columns, model expects %d", ErrDimMismatch, y.C, m.Components.R)
	}
	if dst.R != y.R || dst.C != m.Components.C {
		return nil, fmt.Errorf("%w: Transform dst is %dx%d, want %dx%d", ErrDimMismatch, dst.R, dst.C, y.R, m.Components.C)
	}
	pr, err := m.projection()
	if err != nil {
		return nil, err
	}
	return y.CenteredMulInto(pr.p, dst, pr.meanP), nil
}

// Reconstruct maps latent positions back to data space: X*Cᵀ + mean. It
// allocates the output and delegates to ReconstructInto.
func (m *Model) Reconstruct(x *Dense) (*Dense, error) {
	if x.C != m.Components.C {
		return nil, fmt.Errorf("%w: Reconstruct input has %d columns, model has %d components", ErrDimMismatch, x.C, m.Components.C)
	}
	return m.ReconstructInto(matrix.NewDense(x.R, m.Components.R), x)
}

// ReconstructInto maps latent positions back to data space into dst (dims
// x.R x D), overwriting it. Allocation-free.
func (m *Model) ReconstructInto(dst, x *Dense) (*Dense, error) {
	if x.C != m.Components.C {
		return nil, fmt.Errorf("%w: Reconstruct input has %d columns, model has %d components", ErrDimMismatch, x.C, m.Components.C)
	}
	if dst.R != x.R || dst.C != m.Components.R {
		return nil, fmt.Errorf("%w: Reconstruct dst is %dx%d, want %dx%d", ErrDimMismatch, dst.R, dst.C, x.R, m.Components.R)
	}
	return x.MulBTAddRowInto(m.Components, dst, m.Mean), nil
}

// ExplainedVariance returns, for each component, the fraction of the total
// centered variance of y that projecting onto the fitted components
// explains (cumulative over components, ending at the fraction the whole
// rank-d model captures).
func (m *Model) ExplainedVariance(y *Sparse) ([]float64, error) {
	if y.C != m.Components.R {
		return nil, fmt.Errorf("%w: ExplainedVariance input has %d columns, model expects %d", ErrDimMismatch, y.C, m.Components.R)
	}
	total := y.CenteredFrobeniusSq(m.Mean)
	if total == 0 {
		return make([]float64, m.Components.C), nil
	}
	// Orthonormalize so per-component energies are well defined.
	q := m.Components.Clone()
	matrix.GramSchmidt(q)
	// Energy along component k: ‖Yc·q_k‖².
	out := make([]float64, q.C)
	proj := y.CenteredMulDense(m.Mean, q)
	var cum float64
	for k := 0; k < q.C; k++ {
		var e float64
		for i := 0; i < proj.R; i++ {
			v := proj.At(i, k)
			e += v * v
		}
		cum += e / total
		out[k] = cum
	}
	return out, nil
}

// Model persistence: a fitted model saved as a small self-describing text
// file, so a model trained once can be served or reused without re-fitting.
// Version 2 follows the internal/checkpoint snapshot discipline — written
// through the one text codec of internal/matrix, whose floats take the
// shortest form that parses back to the same float64, and finished with an
// FNV-64a "checksum" trailer verified before any field is parsed — so
// Save/LoadModel round-trips are bit-identical and a torn write or flipped
// bit is detected up front. The format is
//
//	spcamodel 2
//	algorithm <name>
//	orthonormal <bool>
//	seed <uint64>
//	noise <float>
//	mean <D space-separated floats>
//	singular <floats>     (only when the model has a spectrum)
//	components            (followed by a dmx dense matrix)
//	dmx D d
//	...
//	checksum <16 hex digits>
//
// Version-1 files (no seed, no singular section, no trailer) are rejected,
// so every accepted model file has passed its checksum.
const (
	modelMagic   = "spcamodel"
	modelVersion = 2
)

// Save writes the model to w. The output is byte-deterministic for equal
// models, the property the registry's golden fingerprints pin.
func (m *Model) Save(w io.Writer) error {
	tw := checkpoint.NewTrailerWriter(w)
	t := matrix.NewTextWriter(tw)
	t.Word(modelMagic).Int(modelVersion).End()
	t.Word("algorithm").Word(string(m.Algorithm)).End()
	t.Word("orthonormal").Word(strconv.FormatBool(m.orthonormal)).End()
	t.Word("seed").Uint(m.Seed).End()
	t.Word("noise").Float(m.NoiseVariance).End()
	t.Word("mean").Floats(m.Mean).End()
	if len(m.SingularValues) > 0 {
		t.Word("singular").Floats(m.SingularValues).End()
	}
	t.Word("components").End()
	t.Dense(m.Components)
	if err := t.Flush(); err != nil {
		return err
	}
	return tw.WriteTrailer()
}

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadModel reads a model previously written with Save. The returned Model
// supports Transform, Reconstruct and ExplainedVariance; fit history and
// metrics belong to the fitting run's Result, not the model. Every line must
// be exactly as Save writes it, and every value finite. Any failure other
// than a read error wraps ErrBadSnapshot.
func LoadModel(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("spca: reading model: %w", err)
	}
	t := matrix.NewTextReader(bytes.NewReader(data))
	t.Expect(modelMagic)
	if ver := t.Int(); t.Err() != nil {
		return nil, fmt.Errorf("%w: not a model file: %v", ErrBadSnapshot, t.Err())
	} else if ver != modelVersion {
		return nil, fmt.Errorf("%w: unsupported model version %d (have %d)", ErrBadSnapshot, ver, modelVersion)
	}
	if _, err := checkpoint.VerifyTrailer(data); err != nil {
		return nil, fmt.Errorf("spca: corrupt model file: %w", err)
	}
	// Save ends every line with a bare '\n'. The line reader drops a '\r'
	// before one, so a file holding one is refused rather than read as
	// another model.
	if bytes.IndexByte(data, '\r') >= 0 {
		return nil, fmt.Errorf("%w: carriage return in model file", ErrBadSnapshot)
	}
	// The components block ends the parse, so the trailer line is never read.
	m := &Model{Algorithm: Algorithm(t.Raw("algorithm "))}
	if t.Expect("orthonormal"); t.Is("true") {
		m.orthonormal = true
	} else if !t.Is("false") {
		t.Fail("orthonormal is neither true nor false")
	}
	t.Expect("seed")
	m.Seed = t.Uint()
	t.Expect("noise")
	m.NoiseVariance = t.Float()
	t.Expect("mean")
	m.Mean = t.Floats(nil)
	if t.Expect(""); t.Is("singular") {
		if m.SingularValues = t.Floats(nil); len(m.SingularValues) == 0 {
			t.Fail("empty singular line")
		}
		t.Expect("")
	}
	if !t.Is("components") {
		t.Fail("want the components line")
	}
	m.Components = t.Dense()
	if err := t.Err(); err != nil {
		return nil, fmt.Errorf("%w: bad model file: %v", ErrBadSnapshot, err)
	}
	if len(m.Mean) != m.Components.R {
		return nil, fmt.Errorf("%w: model mean length %d != components rows %d",
			ErrBadSnapshot, len(m.Mean), m.Components.R)
	}
	return m, nil
}

// LoadModelFile reads a model from path.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModel(f)
}
