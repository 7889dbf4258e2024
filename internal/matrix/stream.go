package matrix

import (
	"errors"
	"fmt"
	"os"
)

// RowSource provides repeated sequential scans over the rows of a (possibly
// disk-resident) sparse matrix — the access pattern EM needs: a handful of
// full passes, never random access, never the whole matrix in memory.
type RowSource interface {
	// Dims returns the row and column counts.
	Dims() (n, d int)
	// Scan calls fn for every row in order. The SparseVector passed to fn
	// is only valid during the call. Scan may be called repeatedly.
	Scan(fn func(i int, row SparseVector) error) error
}

// SparseSource adapts an in-memory CSR matrix to RowSource.
type SparseSource struct{ M *Sparse }

// Dims implements RowSource.
func (s SparseSource) Dims() (int, int) { return s.M.R, s.M.C }

// Scan implements RowSource.
func (s SparseSource) Scan(fn func(int, SparseVector) error) error {
	for i := 0; i < s.M.R; i++ {
		if err := fn(i, s.M.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

// FileRowSource streams rows from an spmx text file, opening the file fresh
// for every scan. Memory use is one row at a time, independent of N.
type FileRowSource struct {
	path string
	spmxHeader
	// budget is the per-scan bad-record allowance (0 = strict); skipped
	// counts the records the most recent scan dropped against it. Because
	// the file does not change between EM passes, every scan skips the same
	// records and the accounting is deterministic.
	budget  int
	skipped int64
}

// SetBadRecordBudget allows up to n malformed triplet lines per scan to be
// skipped (dropped) instead of failing the scan. n <= 0 restores the strict
// default.
func (s *FileRowSource) SetBadRecordBudget(n int) { s.budget = n }

// Skipped reports how many malformed records the most recent scan dropped.
func (s *FileRowSource) Skipped() int64 { return s.skipped }

// OpenFileRowSource validates the file header and returns a source.
func OpenFileRowSource(path string) (*FileRowSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t := NewTextReader(f)
	h := t.sparseHeader()
	if err := t.Err(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &FileRowSource{path: path, spmxHeader: h}, nil
}

// Dims implements RowSource.
func (s *FileRowSource) Dims() (int, int) { return s.rows, s.cols }

// Scan implements RowSource. It makes every check ReadSparseBudget makes,
// with the same bad-record budget. The header's nnz can only be checked at
// the end, so a file that ends short of it fails after its rows are emitted.
func (s *FileRowSource) Scan(fn func(int, SparseVector) error) error {
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	t := NewTextReader(f)
	if h := t.sparseHeader(); h != s.spmxHeader {
		t.Fail("header changed since the file was opened")
	}
	s.skipped, err = t.scanSparse(s.spmxHeader, s.budget, fn)
	if errors.Is(err, ErrMalformedMatrix) {
		err = fmt.Errorf("%w (in %s)", err, s.path)
	}
	return err
}
