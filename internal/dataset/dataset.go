// Package dataset generates the synthetic stand-ins for the paper's four
// evaluation datasets (Tweets, Bio-Text, Diabetes, Images). The originals are
// proprietary or far beyond laptop scale (1.26 billion tweets, 94 GB), so we
// generate matrices with the same statistical skeleton — sparsity pattern,
// column-popularity skew, planted low-rank structure, value types — at
// configurable scale. PCA behaviour (running-time scaling, accuracy curves,
// crossovers) is governed by N, D, d, sparsity and spectral decay, all of
// which these generators control; see DESIGN.md for the substitution note.
package dataset

import (
	"fmt"
	"math"
	"slices"

	"spca/internal/matrix"
)

// Kind identifies one of the paper's dataset families.
type Kind string

// The four dataset families of §5.
const (
	KindTweets   Kind = "tweets"   // sparse binary bag-of-words, very skewed
	KindBioText  Kind = "biotext"  // sparse binary bag-of-words, denser rows
	KindDiabetes Kind = "diabetes" // dense real-valued NMR spectra
	KindImages   Kind = "images"   // dense 128-dim SIFT-like features
)

// Spec describes a dataset instance to generate.
type Spec struct {
	Kind Kind
	Rows int
	Cols int
	// Rank is the planted latent dimensionality (topics / bumps / clusters).
	// Zero selects a family-appropriate default.
	Rank int
	Seed uint64
}

func (s Spec) String() string {
	return fmt.Sprintf("%s %dx%d (rank %d, seed %d)", s.Kind, s.Rows, s.Cols, s.Rank, s.Seed)
}

// Generate builds the dataset as a sparse CSR matrix (dense families are
// stored with all entries present). The result is deterministic in Spec.
func Generate(s Spec) (*matrix.Sparse, error) {
	if s.Rows <= 0 || s.Cols <= 0 {
		return nil, fmt.Errorf("dataset: invalid dims %dx%d", s.Rows, s.Cols)
	}
	switch s.Kind {
	case KindTweets:
		return genBagOfWords(s, 4, 12, 1.1), nil
	case KindBioText:
		return genBagOfWords(s, 20, 80, 1.05), nil
	case KindDiabetes:
		return matrix.FromDense(genSpectra(s)), nil
	case KindImages:
		return matrix.FromDense(genFeatures(s)), nil
	default:
		return nil, fmt.Errorf("dataset: unknown kind %q", s.Kind)
	}
}

// MustGenerate is Generate for known-good specs.
func MustGenerate(s Spec) *matrix.Sparse {
	m, err := Generate(s)
	if err != nil {
		panic(err)
	}
	return m
}

func (s Spec) rank(def int) int {
	r := s.Rank
	if r <= 0 {
		r = def
	}
	if r > s.Cols {
		r = s.Cols
	}
	if r > s.Rows {
		r = s.Rows
	}
	if r < 1 {
		r = 1
	}
	return r
}

// genBagOfWords plants a topic mixture: each of `rank` topics is a Zipfian
// distribution over a topic-specific permutation of the vocabulary. A row
// picks a topic, samples between minWords and maxWords distinct words from
// it (with a small uniform background), and stores binary indicators —
// matching the Tweets/Bio-Text matrices whose elements are 0/1 word
// occurrence flags.
func genBagOfWords(s Spec, minWords, maxWords int, zipfExp float64) *matrix.Sparse {
	rng := matrix.NewRNG(s.Seed*2654435761 + 1)
	rank := s.rank(25)

	// Zipfian CDF over vocabulary ranks, shared by all topics.
	cdf := make([]float64, s.Cols)
	var total float64
	for r := 0; r < s.Cols; r++ {
		total += 1 / math.Pow(float64(r+1), zipfExp)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	sampleRank := func(rng *matrix.RNG) int {
		u := rng.Float64()
		lo, hi := 0, len(cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}

	// Per-topic permutation of the vocabulary.
	perms := make([][]int, rank)
	for t := range perms {
		perms[t] = rng.Perm(s.Cols)
	}

	b := matrix.NewSparseBuilder(s.Cols)
	present := make(map[int]struct{}, maxWords)
	for i := 0; i < s.Rows; i++ {
		topic := rng.Intn(rank)
		words := minWords
		if maxWords > minWords {
			words += rng.Intn(maxWords - minWords + 1)
		}
		// Keep rows sparse and sampling fast even for tiny vocabularies:
		// drawing nearly all of a Zipfian vocabulary without replacement is
		// a heavy-tailed coupon-collector problem.
		if max := s.Cols/4 + 1; words > max {
			words = max
		}
		for k := range present {
			delete(present, k)
		}
		for len(present) < words {
			var col int
			if rng.Float64() < 0.1 {
				col = sampleRank(rng) // background: globally popular words
			} else {
				col = perms[topic][sampleRank(rng)]
			}
			present[col] = struct{}{}
		}
		idx := make([]int, 0, len(present))
		for c := range present {
			idx = append(idx, c)
		}
		slices.Sort(idx)
		vals := make([]float64, len(idx))
		for j := range vals {
			vals[j] = 1
		}
		b.AddRow(idx, vals)
	}
	return b.Build()
}

// genSpectra builds Diabetes-like NMR spectra: every row is a positive
// combination of `rank` shared Gaussian resonance peaks plus a smooth
// baseline and measurement noise. Rows are dense real-valued vectors.
func genSpectra(s Spec) *matrix.Dense {
	rng := matrix.NewRNG(s.Seed*0x9E3779B9 + 7)
	rank := s.rank(12)

	centers := make([]float64, rank)
	widths := make([]float64, rank)
	for b := 0; b < rank; b++ {
		centers[b] = rng.Float64() * float64(s.Cols)
		widths[b] = (0.01 + 0.03*rng.Float64()) * float64(s.Cols)
	}
	// Precompute each peak's profile across frequencies.
	profiles := matrix.NewDense(rank, s.Cols)
	for b := 0; b < rank; b++ {
		row := profiles.Row(b)
		for j := 0; j < s.Cols; j++ {
			d := (float64(j) - centers[b]) / widths[b]
			row[j] = math.Exp(-0.5 * d * d)
		}
	}

	out := matrix.NewDense(s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		row := out.Row(i)
		for b := 0; b < rank; b++ {
			amp := math.Abs(2 + rng.NormFloat64())
			matrix.AXPY(amp, profiles.Row(b), row)
		}
		base := 0.2 + 0.1*rng.Float64()
		for j := range row {
			row[j] += base + 0.05*rng.NormFloat64()
		}
	}
	return out
}

// genFeatures builds Images-like SIFT descriptors: a mixture of `rank`
// Gaussian clusters in Cols dimensions with non-negative values, matching
// the dense 160M x 128 feature matrix of the paper.
func genFeatures(s Spec) *matrix.Dense {
	rng := matrix.NewRNG(s.Seed*0xC2B2AE35 + 11)
	rank := s.rank(16)

	centers := matrix.NewDense(rank, s.Cols)
	for i := range centers.Data {
		centers.Data[i] = math.Abs(rng.NormFloat64() * 4)
	}

	out := matrix.NewDense(s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		c := centers.Row(rng.Intn(rank))
		row := out.Row(i)
		for j := range row {
			v := c[j] + rng.NormFloat64()
			if v < 0 {
				v = 0
			}
			row[j] = v
		}
	}
	return out
}

// Rows returns the matrix rows as a slice of sparse vectors, the record type
// the engines consume. The vectors alias the matrix storage.
func Rows(m *matrix.Sparse) []matrix.SparseVector {
	out := make([]matrix.SparseVector, m.R)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// Stats summarizes a generated dataset.
type Stats struct {
	Rows, Cols int
	NNZ        int
	Density    float64
	SizeBytes  int64
}

// Describe computes summary statistics for m.
func Describe(m *matrix.Sparse) Stats {
	return Stats{
		Rows:      m.R,
		Cols:      m.C,
		NNZ:       m.NNZ(),
		Density:   m.Density(),
		SizeBytes: m.SizeBytes(),
	}
}
