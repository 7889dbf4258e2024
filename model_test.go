package spca

import (
	"bytes"
	"errors"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"spca/internal/checkpoint"
	"spca/internal/matrix"
)

func TestModelRoundTrip(t *testing.T) {
	y := smallDataset(t)
	res, err := Fit(y, Config{Algorithm: SPCASpark, Components: 3, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != res.Algorithm {
		t.Fatalf("algorithm %q != %q", got.Algorithm, res.Algorithm)
	}
	if got.Components.MaxAbsDiff(res.Components) != 0 {
		t.Fatal("components not preserved exactly")
	}
	if got.NoiseVariance != res.NoiseVariance {
		t.Fatalf("noise %v != %v", got.NoiseVariance, res.NoiseVariance)
	}
	for i, v := range res.Mean {
		if got.Mean[i] != v {
			t.Fatal("mean not preserved exactly")
		}
	}
	// The loaded model transforms identically.
	a, err := res.Transform(y)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Transform(y)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxAbsDiff(b) != 0 {
		t.Fatal("loaded model transforms differently")
	}
}

func TestModelFileRoundTrip(t *testing.T) {
	y := smallDataset(t)
	res, err := Fit(y, Config{Algorithm: MLlibPCA, Components: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.spca")
	if err := res.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Orthonormal flag survives: baseline models transform by projection.
	a, _ := res.Transform(y)
	b, _ := got.Transform(y)
	if a.MaxAbsDiff(b) != 0 {
		t.Fatal("orthonormal flag lost in round trip")
	}
}

// sealModel appends a valid checksum trailer to a model body, so malformed
// fields reach the parser instead of being caught by the checksum.
func sealModel(t testing.TB, body string) string {
	t.Helper()
	var buf bytes.Buffer
	tw := checkpoint.NewTrailerWriter(&buf)
	if _, err := tw.Write([]byte(body)); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteTrailer(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// modelBody is a well-formed model file body, without its checksum trailer.
const modelBody = "spcamodel 2\nalgorithm ppca-local\northonormal false\nseed 7\nnoise 0.5\n" +
	"mean 1 2\nsingular 3 1\ncomponents\ndmx 2 1\n1\n2\n"

func TestLoadModelErrors(t *testing.T) {
	if _, err := LoadModel(strings.NewReader(sealModel(t, modelBody))); err != nil {
		t.Fatalf("the base case must load: %v", err)
	}
	edit := func(old, new string) string {
		t.Helper()
		if !strings.Contains(modelBody, old) {
			t.Fatalf("model body has no %q", old)
		}
		return sealModel(t, strings.Replace(modelBody, old, new, 1))
	}
	cases := []string{
		"",
		"not a model",
		sealModel(t, "spcamodel 2\nbogus line\n"),
		sealModel(t, "spcamodel 2\nnoise abc\n"),
		sealModel(t, "spcamodel 2\nmean 1 2\ncomponents\ndmx 3 1\n1\n2\n3\n"), // mean/components mismatch
		sealModel(t, "spcamodel 2\nalgorithm x\n"),                            // truncated
		"spcamodel 2\nalgorithm x\n",                                          // no checksum trailer
		// Every value is finite, as the components block always required.
		edit("noise 0.5", "noise NaN"),
		edit("mean 1 2", "mean Inf 2"),
		edit("singular 3 1", "singular 3 -Inf"),
		edit("\n1\n2\n", "\n1\nNaN\n"),
		// Every line is as Save writes it.
		edit("mean 1 2", "mean 1 2 3"),
		edit("seed 7", "seed  7"),
		edit("noise 0.5", "noise 0.5 1"),
		edit("orthonormal false", "orthonormal yes"),
		edit("singular 3 1", "singular"),
		edit("components", "components\r"),
		edit("seed 7\n", ""),
	}
	for _, c := range cases {
		if _, err := LoadModel(strings.NewReader(c)); err == nil {
			t.Fatalf("expected error for %q", c)
		} else if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("error for %q does not wrap ErrBadSnapshot: %v", c, err)
		}
	}
	// Version 1 had no checksum; a well-formed v1 file is rejected outright.
	v1 := "spcamodel 1\nalgorithm ppca-local\nnoise 0.5\nmean 1 2\ncomponents\ndmx 2 1\n1\n2\n"
	if _, err := LoadModel(strings.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "unsupported model version") {
		t.Fatalf("v1 model error = %v, want unsupported model version", err)
	}
	// A read error is an I/O failure, not a bad model.
	if _, err := LoadModelFile("/nonexistent/model"); err == nil || errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("missing file = %v, want an I/O error", err)
	}
	if _, err := LoadModel(iotest.ErrReader(io.ErrUnexpectedEOF)); err == nil || errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("failing reader = %v, want an I/O error", err)
	}
}

// savedModel is a small fitted-shape model with a spectrum, saved.
func savedModel(tb testing.TB, dims, d int) (*Model, []byte) {
	rng := matrix.NewRNG(uint64(dims*d + 1))
	m := &Model{Algorithm: RSVDSpark, Components: matrix.NewDense(dims, d), Mean: make([]float64, dims),
		NoiseVariance: 0.125, SingularValues: make([]float64, d), Seed: 1<<63 + 5}
	for i := range m.Components.Data {
		m.Components.Data[i] = rng.NormFloat64()
	}
	for i := range m.Mean {
		m.Mean[i] = rng.Float64() * 1e-3
	}
	for i := range m.SingularValues {
		m.SingularValues[i] = float64(d-i) * math.Pi
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return m, buf.Bytes()
}

// TestModelSaveAllocs gates the model writer's allocations: a fixed
// handful for the buffers, none per float, so one bound holds at both
// shapes.
func TestModelSaveAllocs(t *testing.T) {
	for _, shape := range [][2]int{{200, 10}, {2000, 50}} {
		m, _ := savedModel(t, shape[0], shape[1])
		allocs := testing.AllocsPerRun(5, func() {
			if err := m.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 10 {
			t.Errorf("Save of a %dx%d model: %.0f allocations, want at most 10", shape[0], shape[1], allocs)
		}
	}
}

// FuzzLoadModel hammers the model reader as FuzzReadSnapshot hammers the
// snapshot reader: any input may be rejected, none may panic, and an
// accepted one must re-serialize and re-parse to the same bits. With seal
// set the input is given a valid checksum trailer first, so mutations reach
// the field parser instead of stopping at the checksum.
func FuzzLoadModel(f *testing.F) {
	_, valid := savedModel(f, 6, 2)
	f.Add(valid, false)
	f.Add(valid[:len(valid)/2], false)                 // truncated
	f.Add(valid[:len(valid)-26], true)                 // resealed body
	f.Add([]byte(modelBody), true)                     // with a singular line
	f.Add([]byte("spcamodel 2\nnoise NaN\n"), true)    // non-finite
	f.Add([]byte("spcamodel 1\nalgorithm x\n"), false) // version 1
	f.Add([]byte(strings.Replace(modelBody, "dmx 2 1", "dmx 2 1 x", 1)), true)
	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		if seal {
			data = []byte(sealModel(t, string(data)))
		}
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if len(m.Mean) != m.Components.R || len(m.Components.Data) != m.Components.R*m.Components.C {
			t.Fatalf("accepted model with mean %d, components %dx%d (%d values)",
				len(m.Mean), m.Components.R, m.Components.C, len(m.Components.Data))
		}
		var out, again bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatalf("re-serializing accepted model: %v", err)
		}
		m2, err := LoadModel(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing own output: %v", err)
		}
		if err := m2.Save(&again); err != nil || !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatalf("round trip changed the model (err %v)", err)
		}
	})
}

// fnv64a fingerprints a byte stream the same way the snapshot trailer does.
func fnv64a(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// TestModelGoldenFingerprint pins the serialized bytes of a fixed fit: the
// model format, the exact-float rendering, and the fit's bit-reproducibility
// all feed one FNV-64a fingerprint. If this changes, either the numerics or
// the file format drifted — both are contract breaks for the registry, whose
// persisted generations must reload bit-identically across daemon versions.
func TestModelGoldenFingerprint(t *testing.T) {
	y := smallDataset(t)
	res, err := Fit(y, Config{Algorithm: SPCASpark, Components: 3, MaxIter: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Save(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = uint64(0xafa1d299771d97db)
	got := fnv64a(buf.Bytes())
	if got != golden {
		t.Fatalf("model fingerprint %#016x, golden %#016x", got, golden)
	}
	// Save twice: byte determinism is what makes the fingerprint meaningful.
	var buf2 bytes.Buffer
	if err := res.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("Save is not byte-deterministic")
	}
	t.Logf("fingerprint %#016x", got)
}

// TestModelTransformIntoParity checks the in-place forms against their
// allocating counterparts bit for bit, for both the posterior (PPCA) and
// orthonormal (baseline) projection paths, sparse and dense inputs.
func TestModelTransformIntoParity(t *testing.T) {
	y := smallDataset(t)
	for _, alg := range []Algorithm{SPCASpark, MLlibPCA} {
		res, err := Fit(y, Config{Algorithm: alg, Components: 3, MaxIter: 8})
		if err != nil {
			t.Fatal(err)
		}
		m := &res.Model
		want, err := m.Transform(y)
		if err != nil {
			t.Fatal(err)
		}
		dst := matrix.NewDense(y.R, 3)
		if _, err := m.TransformInto(dst, y); err != nil {
			t.Fatal(err)
		}
		if dst.MaxAbsDiff(want) != 0 {
			t.Fatalf("%s: TransformInto differs from Transform", alg)
		}
		// Repeat into the same dst: overwrite semantics, identical bytes.
		if _, err := m.TransformInto(dst, y); err != nil {
			t.Fatal(err)
		}
		if dst.MaxAbsDiff(want) != 0 {
			t.Fatalf("%s: second TransformInto differs", alg)
		}
		// Dense overload.
		yd := y.Dense()
		wantD, err := m.TransformDense(yd)
		if err != nil {
			t.Fatal(err)
		}
		if wantD.MaxAbsDiff(want) != 0 {
			t.Fatalf("%s: dense and sparse transforms differ", alg)
		}
		if _, err := m.TransformDenseInto(dst, yd); err != nil {
			t.Fatal(err)
		}
		if dst.MaxAbsDiff(want) != 0 {
			t.Fatalf("%s: TransformDenseInto differs", alg)
		}
		// ReconstructInto parity.
		rec, err := m.Reconstruct(want)
		if err != nil {
			t.Fatal(err)
		}
		recDst := matrix.NewDense(y.R, y.C)
		if _, err := m.ReconstructInto(recDst, want); err != nil {
			t.Fatal(err)
		}
		if recDst.MaxAbsDiff(rec) != 0 {
			t.Fatalf("%s: ReconstructInto differs from Reconstruct", alg)
		}
		// Wrong dst shapes are typed dimension errors, not corruption.
		if _, err := m.TransformInto(matrix.NewDense(y.R, 5), y); !errors.Is(err, ErrDimMismatch) {
			t.Fatalf("%s: bad dst error = %v, want ErrDimMismatch", alg, err)
		}
	}
}

// TestReconstructDimMismatch pins the fix for Reconstruct silently accepting
// latent matrices of the wrong width: the error is typed and the input is
// not touched.
func TestReconstructDimMismatch(t *testing.T) {
	y := smallDataset(t)
	res, err := Fit(y, Config{Algorithm: SPCASpark, Components: 3, MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	bad := matrix.NewDense(4, 5) // model has 3 components
	if _, err := res.Reconstruct(bad); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("Reconstruct(wrong width) error = %v, want ErrDimMismatch", err)
	}
	if _, err := res.Transform(matrix.NewSparse(3, 7)); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("Transform(wrong width) error = %v, want ErrDimMismatch", err)
	}
	if _, err := res.ExplainedVariance(matrix.NewSparse(3, 7)); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("ExplainedVariance(wrong width) error = %v, want ErrDimMismatch", err)
	}
}

// TestTransformReconstructRoundTrip: on rank-3 data, a LocalPPCA model's
// posterior Transform followed by Reconstruct recovers the input to within
// 20% relative 1-norm error.
func TestTransformReconstructRoundTrip(t *testing.T) {
	y := GenerateDataset(DatasetSpec{Kind: Diabetes, Rows: 100, Cols: 40, Rank: 3, Seed: 8})
	res, err := Fit(y, Config{Algorithm: LocalPPCA, Components: 3, MaxIter: 40, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	x, err := res.Transform(y)
	if err != nil {
		t.Fatal(err)
	}
	if x.R != 100 || x.C != 3 {
		t.Fatalf("latent dims %dx%d", x.R, x.C)
	}
	recon, err := res.Reconstruct(x)
	if err != nil {
		t.Fatal(err)
	}
	dense := y.Dense()
	if relErr := recon.Sub(dense).Norm1() / dense.Norm1(); relErr > 0.2 {
		t.Fatalf("round-trip relative error %v", relErr)
	}
}

// TestModelCorruptionDetected flips one byte of a saved model and checks the
// checksum trailer rejects it with the snapshot-corruption sentinel.
func TestModelCorruptionDetected(t *testing.T) {
	y := smallDataset(t)
	res, err := Fit(y, Config{Algorithm: SPCASpark, Components: 2, MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x20
	if _, err := LoadModel(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("corrupt model error = %v, want ErrBadSnapshot", err)
	}
}
