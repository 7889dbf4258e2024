package matrix

import (
	"bytes"
	"math"
	"testing"
)

// fuzzSeedSparse builds a small valid matrix to seed both fuzzers with
// well-formed corpora alongside hand-written corruptions.
func fuzzSeedSparse() *Sparse {
	b := NewSparseBuilder(5)
	b.AddRow([]int{0, 3}, []float64{1.5, -2.25})
	b.AddRow(nil, nil)
	b.AddRow([]int{1, 2, 4}, []float64{0.5, 3, 1e-9})
	return b.Build()
}

// checkParsedSparse asserts the CSR invariants every successful parse must
// deliver — the contract the rest of the codebase indexes by without checks.
func checkParsedSparse(t *testing.T, m *Sparse) {
	t.Helper()
	if m.R < 0 || m.C < 0 {
		t.Fatalf("negative dims %d x %d", m.R, m.C)
	}
	if len(m.RowPtr) != m.R+1 {
		t.Fatalf("rowptr length %d for %d rows", len(m.RowPtr), m.R)
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.R] != len(m.Cols) || len(m.Cols) != len(m.Vals) {
		t.Fatalf("inconsistent CSR arrays: ptr0=%d ptrN=%d cols=%d vals=%d",
			m.RowPtr[0], m.RowPtr[m.R], len(m.Cols), len(m.Vals))
	}
	for i := 0; i < m.R; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			t.Fatalf("rowptr decreases at %d", i)
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.Cols[k] < 0 || m.Cols[k] >= m.C {
				t.Fatalf("column %d out of range in row %d", m.Cols[k], i)
			}
			if k > m.RowPtr[i] && m.Cols[k] <= m.Cols[k-1] {
				t.Fatalf("columns out of order in row %d", i)
			}
		}
	}
	for _, v := range m.Vals {
		if v != v || math.IsInf(v, 0) {
			t.Fatalf("non-finite value survived parsing: %v", v)
		}
	}
}

func FuzzReadSparse(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSparse(&buf, fuzzSeedSparse()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("spmx 2 2 1\n0 1 3.5\n"))
	f.Add([]byte("spmx 2 2 1\n0 9 3.5\n"))      // column out of range
	f.Add([]byte("spmx 2 2 1\n5 1 3.5\n"))      // row out of range
	f.Add([]byte("spmx 2 2 9\n0 1 3.5\n"))      // nnz mismatch
	f.Add([]byte("spmx 2 2 1\n0 1 NaN\n"))      // non-finite
	f.Add([]byte("spmx -1 2 1\n"))              // negative dims
	f.Add([]byte("spmx 1 99999999999999 0\n"))  // implausible header
	f.Add([]byte("spmx 2 3 2\n0 2 1\n0 1 2\n")) // columns out of order
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadSparse(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		checkParsedSparse(t, m)
		// Accepted input must round-trip exactly.
		var out bytes.Buffer
		if err := WriteSparse(&out, m); err != nil {
			t.Fatalf("re-serializing accepted matrix: %v", err)
		}
		m2, err := ReadSparse(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing own output: %v", err)
		}
		if m2.R != m.R || m2.C != m.C || m2.NNZ() != m.NNZ() {
			t.Fatalf("round-trip changed shape: %dx%d/%d -> %dx%d/%d",
				m.R, m.C, m.NNZ(), m2.R, m2.C, m2.NNZ())
		}
	})
}

func FuzzReadSparseBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSparseBinary(&buf, fuzzSeedSparse()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])           // truncated values
	f.Add(valid[:20])                     // truncated header
	f.Add([]byte("SPMB"))                 // magic only
	f.Add([]byte("NOPE.............."))   // wrong magic
	f.Add(bytes.Repeat([]byte{0xff}, 40)) // implausible header
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadSparseBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkParsedSparse(t, m)
		var out bytes.Buffer
		if err := WriteSparseBinary(&out, m); err != nil {
			t.Fatalf("re-serializing accepted matrix: %v", err)
		}
		m2, err := ReadSparseBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing own output: %v", err)
		}
		if m2.R != m.R || m2.C != m.C || m2.NNZ() != m.NNZ() {
			t.Fatalf("round-trip changed shape")
		}
	})
}

func FuzzReadDense(f *testing.F) {
	m := NewDenseFromRows([][]float64{{1.5, -2.25, 0}, {1e-300, math.Pi, -0.0}})
	var buf bytes.Buffer
	if err := WriteDense(&buf, m); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("dmx 2 2\r\n1\t2\n 3  4 \n"))      // blanks and CRLF
	f.Add([]byte("dmx 1 2\n1\n"))                   // short row
	f.Add([]byte("dmx 1 2\n1 NaN\n"))               // non-finite
	f.Add([]byte("dmx 2 1\n1\n"))                   // truncated
	f.Add([]byte("dmx 99999999 99999999\n1\n"))     // implausible header
	f.Add([]byte("dmx 3000000 1\n1\n"))             // large header, little data
	f.Add([]byte("dmx 1 2 x\n0x1p-2 1_0\ntrail\n")) // header text, odd floats
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadDense(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if m.R < 0 || m.C < 0 || len(m.Data) != m.R*m.C {
			t.Fatalf("accepted %dx%d matrix with %d values", m.R, m.C, len(m.Data))
		}
		// Accepted input must re-serialize and re-parse to the same bits.
		var out bytes.Buffer
		if err := WriteDense(&out, m); err != nil {
			t.Fatalf("re-serializing accepted matrix: %v", err)
		}
		m2, err := ReadDense(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing own output: %v", err)
		}
		if m2.R != m.R || m2.C != m.C {
			t.Fatalf("round-trip changed shape: %dx%d -> %dx%d", m.R, m.C, m2.R, m2.C)
		}
		for i, v := range m.Data {
			if v != v || math.IsInf(v, 0) || math.Float64bits(m2.Data[i]) != math.Float64bits(v) {
				t.Fatalf("value %d: %v re-reads as %v", i, v, m2.Data[i])
			}
		}
	})
}
