package spca

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

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
func sealModel(t *testing.T, body string) string {
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

func TestLoadModelErrors(t *testing.T) {
	cases := []string{
		"",
		"not a model",
		sealModel(t, "spcamodel 2\nbogus line\n"),
		sealModel(t, "spcamodel 2\nnoise abc\n"),
		sealModel(t, "spcamodel 2\nmean 1 2\ncomponents\ndmx 3 1\n1\n2\n3\n"), // mean/components mismatch
		sealModel(t, "spcamodel 2\nalgorithm x\n"),                            // truncated
		"spcamodel 2\nalgorithm x\n",                                          // no checksum trailer
	}
	for _, c := range cases {
		if _, err := LoadModel(strings.NewReader(c)); err == nil {
			t.Fatalf("expected error for %q", c)
		}
	}
	// Version 1 had no checksum; a well-formed v1 file is rejected outright.
	v1 := "spcamodel 1\nalgorithm ppca-local\nnoise 0.5\nmean 1 2\ncomponents\ndmx 2 1\n1\n2\n"
	if _, err := LoadModel(strings.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "unsupported model version") {
		t.Fatalf("v1 model error = %v, want unsupported model version", err)
	}
	if _, err := LoadModelFile("/nonexistent/model"); err == nil {
		t.Fatal("expected error for missing file")
	}
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
