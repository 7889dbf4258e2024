package matrix

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pinValues covers the float forms whose text must never drift: negative
// zero, a tiny, a subnormal and a huge magnitude, integers and irrationals.
var pinValues = []float64{math.Copysign(0, -1), 1e-300, 5e-324, 1e300, 0, 1, -7, 1 << 40,
	math.Pi, -math.Sqrt2, 1.0 / 3, math.E}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// sameBits fails unless got and want hold the same float64 bit patterns.
func sameBits(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value %d reads back as %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSparseTextRoundTrip(t *testing.T) {
	rng := NewRNG(71)
	m := randomSparse(rng, 12, 9, 0.3)
	var buf bytes.Buffer
	if err := WriteSparse(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSparse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	denseAlmostEq(t, got.Dense(), m.Dense(), 0)

	// The bytes are pinned, so files written by any version of the program
	// compare equal.
	b := NewSparseBuilder(5)
	b.AddRow([]int{0, 1, 2, 3}, pinValues[0:4])
	b.AddRow(nil, nil)
	b.AddRow([]int{0, 1, 2, 3, 4}, pinValues[4:9])
	b.AddRow([]int{1, 3, 4}, pinValues[9:12])
	buf.Reset()
	if err := WriteSparse(&buf, b.Build()); err != nil {
		t.Fatal(err)
	}
	if got := fnv64a(buf.Bytes()); got != 0xad464e53e9710682 {
		t.Fatalf("spmx fingerprint %#016x, pinned 0xad464e53e9710682:\n%s", got, buf.Bytes())
	}
	pinned, err := ReadSparse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, pinned.Vals, pinValues)
}

func TestSparseTextTrailingEmptyRows(t *testing.T) {
	b := NewSparseBuilder(4)
	b.AddRow([]int{1}, []float64{2})
	b.AddRow(nil, nil)
	b.AddRow(nil, nil)
	m := b.Build()
	var buf bytes.Buffer
	if err := WriteSparse(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSparse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.R != 3 || got.NNZ() != 1 {
		t.Fatalf("got %dx%d nnz %d", got.R, got.C, got.NNZ())
	}
}

func TestReadSparseErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus header",
		"spmx 2 2 1\nnot a triplet line here",
		"spmx 2 2 5\n0 0 1\n",             // nnz mismatch
		"spmx 2 2 2\n1 0 1\n0 1 2\n",      // rows out of order
		"spmx 2 2 1\n0 5 1\n",             // column out of range
		"spmx 2 2 1\n0 -1 1\n",            // negative column
		"spmx 2 2 1\n7 0 1\n",             // row out of range
		"spmx 2 3 2\n0 2 1\n0 1 2\n",      // columns out of order in a row
		"spmx 2 3 2\n0 1 1\n0 1 2\n",      // duplicate column in a row
		"spmx 2 2 1\n0 1 NaN\n",           // non-finite value
		"spmx 2 2 1\n0 1 +Inf\n",          // non-finite value
		"spmx -3 2 0\n",                   // negative rows
		"spmx 2 99999999999999999999 0\n", // implausible header
		"spmx 2 2 -1\n",                   // negative nnz
	}
	for _, c := range cases {
		_, err := ReadSparse(strings.NewReader(c))
		if err == nil {
			t.Fatalf("expected error for input %q", c)
		}
		if !errors.Is(err, ErrMalformedMatrix) {
			t.Fatalf("error for %q does not wrap ErrMalformedMatrix: %v", c, err)
		}
	}

	// What the reader accepts, as files from outside the program rely on:
	// any blanks between fields (Unicode ones too), blanks around a line,
	// CRLF line ends, a tab after the magic word, text after the header's
	// counts, blank lines, and a missing final newline. Every input reads as
	// the same 2 x 3 matrix.
	want := []float64{0, 1.5, 0, 0, 0, -2}
	for _, in := range []string{
		"spmx 2 3 2\n0  1   1.5\n1 2 -2\n",
		"spmx 2 3 2\n0\t1\t1.5\n1\t2\t-2\n",
		"spmx 2 3 2\n  0 1 1.5  \n\t1 2 -2\t\n",
		"spmx 2 3 2\r\n0 1 1.5\r\n1 2 -2\r\n",
		"spmx\t2 3 2\n0 1 1.5\n1 2 -2\n",
		"spmx 2 3 2 extra\n0 1 1.5\n1 2 -2\n",
		"spmx 2 3 2\n\n0 1 1.5\n\n1 2 -2\n\n",
		"spmx 2 3 2\n0 1 1.5\n \u00a0\n1\u00a02 -2\n",
		"spmx 2 3 2\n+0 01 1.5\n1 2 -2",
	} {
		m, err := ReadSparse(strings.NewReader(in))
		if err != nil {
			t.Fatalf("ReadSparse(%q): %v", in, err)
		}
		if m.R != 2 || m.C != 3 {
			t.Fatalf("ReadSparse(%q) is %dx%d, want 2x3", in, m.R, m.C)
		}
		sameBits(t, m.Dense().Data, want)
	}
}

// TestSparseBadRecordBudget drives the bad-record budget through both spmx
// readers, which share one scan loop: a skipped line loosens the nnz check
// by one, a line over budget fails, and a file that ends short of its
// header's nnz fails the streaming scan as it fails ReadSparse.
func TestSparseBadRecordBudget(t *testing.T) {
	dir := t.TempDir()
	scan := func(text string, budget int) ([]float64, int64, error) {
		path := filepath.Join(dir, "m.spmx")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenFileRowSource(path)
		if err != nil {
			return nil, 0, err
		}
		src.SetBadRecordBudget(budget)
		n, d := src.Dims()
		out := make([]float64, n*d)
		err = src.Scan(func(i int, row SparseVector) error {
			for k, j := range row.Indices {
				out[i*d+j] = row.Values[k]
			}
			return nil
		})
		return out, src.Skipped(), err
	}
	oneBad := "spmx 3 3 3\n0 0 1\n1 x 2\n2 2 3\n"
	for budget, wantErr := range []bool{true, false, false} {
		m, skipped, err := ReadSparseBudget(strings.NewReader(oneBad), budget)
		streamed, streamSkipped, serr := scan(oneBad, budget)
		if (err != nil) != wantErr || (serr != nil) != wantErr {
			t.Fatalf("budget %d: ReadSparseBudget err %v, Scan err %v; want failure %v", budget, err, serr, wantErr)
		}
		if wantErr {
			continue
		}
		if skipped != 1 || streamSkipped != 1 {
			t.Fatalf("budget %d: skipped %d and %d, want 1", budget, skipped, streamSkipped)
		}
		sameBits(t, m.Dense().Data, []float64{1, 0, 0, 0, 0, 0, 0, 0, 3})
		sameBits(t, streamed, m.Dense().Data)
	}
	for _, text := range []string{
		"spmx 3 3 4\n0 0 1\n1 1 1\n2 2 1\n",   // truncated: header nnz 4, 3 triplets
		"spmx 3 3 2\n0 0 1\n1 1 1\n2 2 1\n",   // more triplets than the header
		"spmx 3 3 3\n0 0 1\n1 x 2\n2 2 3 4\n", // two bad lines, budget 1
	} {
		if _, _, err := ReadSparseBudget(strings.NewReader(text), 1); !errors.Is(err, ErrMalformedMatrix) {
			t.Errorf("ReadSparseBudget(%q) = %v, want ErrMalformedMatrix", text, err)
		}
		if _, _, err := scan(text, 1); !errors.Is(err, ErrMalformedMatrix) {
			t.Errorf("Scan(%q) = %v, want ErrMalformedMatrix", text, err)
		}
	}
}

func TestDenseTextRoundTrip(t *testing.T) {
	rng := NewRNG(72)
	m := NormRnd(rng, 6, 4)
	var buf bytes.Buffer
	if err := WriteDense(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDense(&buf)
	if err != nil {
		t.Fatal(err)
	}
	denseAlmostEq(t, got, m, 0)

	// The bytes are pinned, so files written by any version of the program
	// compare equal.
	pin := NewDense(3, 4)
	copy(pin.Data, pinValues)
	buf.Reset()
	if err := WriteDense(&buf, pin); err != nil {
		t.Fatal(err)
	}
	if got := fnv64a(buf.Bytes()); got != 0x5c42e6d2af321039 {
		t.Fatalf("dmx fingerprint %#016x, pinned 0x5c42e6d2af321039:\n%s", got, buf.Bytes())
	}
	pinned, err := ReadDense(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, pinned.Data, pinValues)
}

func TestReadDenseErrors(t *testing.T) {
	cases := []string{
		"",
		"nope",
		"dmx 2 3\n1 2 3\n",           // truncated
		"dmx 1 3\n1 2\n",             // short row
		"dmx 1 2\nfoo bar\n",         // non-numeric
		"dmx 1 2\n1 Inf\n",           // non-finite value
		"dmx 1 2\nNaN 0\n",           // non-finite value
		"dmx -1 2\n",                 // negative rows
		"dmx 99999999 99999999\n1\n", // implausible header
		"dmx 2 2\n1 2\n\n3 4\n",      // blank line inside the body
		" dmx 1 2\n1 2\n",            // blank before the magic word
		"dmx 1 2\n1 2 3\n",           // long row
		"dmx 1 2\n1e400 2\n",         // out of range
		"dmx 2 0\n",                  // rows missing
	}
	for _, c := range cases {
		_, err := ReadDense(strings.NewReader(c))
		if err == nil {
			t.Fatalf("expected error for input %q", c)
		}
		if !errors.Is(err, ErrMalformedMatrix) {
			t.Fatalf("error for %q does not wrap ErrMalformedMatrix: %v", c, err)
		}
	}

	// What the reader accepts, as files from outside the program rely on:
	// any blanks between fields (Unicode ones too), blanks around a row, CRLF
	// line ends, a tab after the magic word, text after the header's counts,
	// lines after the last row, a missing final newline, and every float
	// syntax strconv.ParseFloat takes.
	for _, c := range []struct {
		in   string
		want []float64
	}{
		{"dmx 2 2\n1  2\n3   4\n", []float64{1, 2, 3, 4}},
		{"dmx 2 2\n1\t2\n3\t\t4\n", []float64{1, 2, 3, 4}},
		{"dmx 2 2\n  1 2  \n\t3 4\t\n", []float64{1, 2, 3, 4}},
		{"dmx 2 2\r\n1 2\r\n3 4\r\n", []float64{1, 2, 3, 4}},
		{"dmx\t2 2\n1 2\n3 4\n", []float64{1, 2, 3, 4}},
		{"dmx  2\t2 extra\n1 2\n3 4\n", []float64{1, 2, 3, 4}},
		{"dmx 1 2\n1 2\ngarbage\n", []float64{1, 2}},
		{"dmx 1 2\n1\u00a02", []float64{1, 2}},
		{"dmx 1 2\n+1 0x1p-2\n", []float64{1, 0.25}},
		{"dmx 1 2\n1_0 1e-400\n", []float64{10, 0}},
		{"dmx 2 0\n\n\n", []float64{}},
		{"dmx 0 3", []float64{}},
	} {
		m, err := ReadDense(strings.NewReader(c.in))
		if err != nil {
			t.Fatalf("ReadDense(%q): %v", c.in, err)
		}
		sameBits(t, m.Data, c.want)
	}
}

func TestSparseBinaryRoundTrip(t *testing.T) {
	rng := NewRNG(73)
	m := randomSparse(rng, 20, 15, 0.2)
	var buf bytes.Buffer
	if err := WriteSparseBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSparseBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	denseAlmostEq(t, got.Dense(), m.Dense(), 0)
}

func TestReadSparseBinaryBadMagic(t *testing.T) {
	if _, err := ReadSparseBinary(strings.NewReader("XXXXgarbage")); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := ReadSparseBinary(strings.NewReader("")); err == nil {
		t.Fatal("expected error for empty input")
	}
}

// binBlob serializes a hand-built SPMB file so each CSR invariant can be
// violated independently.
func binBlob(rows, cols, nnz uint64, rowPtr, colIdx []uint64, vals []float64) []byte {
	var buf bytes.Buffer
	buf.WriteString("SPMB")
	words := append([]uint64{rows, cols, nnz}, rowPtr...)
	words = append(words, colIdx...)
	for _, w := range words {
		binary.Write(&buf, binary.LittleEndian, w)
	}
	for _, v := range vals {
		binary.Write(&buf, binary.LittleEndian, math.Float64bits(v))
	}
	return buf.Bytes()
}

func TestReadSparseBinaryRejectsCorruptCSR(t *testing.T) {
	cases := map[string][]byte{
		"rowptr decreasing":    binBlob(2, 3, 2, []uint64{0, 2, 1}, []uint64{0, 1}, []float64{1, 2}),
		"rowptr over nnz":      binBlob(2, 3, 2, []uint64{0, 5, 2}, []uint64{0, 1}, []float64{1, 2}),
		"rowptr short of nnz":  binBlob(2, 3, 2, []uint64{0, 1, 1}, []uint64{0, 1}, []float64{1, 2}),
		"column out of range":  binBlob(2, 3, 2, []uint64{0, 1, 2}, []uint64{0, 9}, []float64{1, 2}),
		"columns out of order": binBlob(1, 3, 2, []uint64{0, 2}, []uint64{2, 1}, []float64{1, 2}),
		"duplicate column":     binBlob(1, 3, 2, []uint64{0, 2}, []uint64{1, 1}, []float64{1, 2}),
		"non-finite value":     binBlob(1, 3, 1, []uint64{0, 1}, []uint64{0}, []float64{math.NaN()}),
		"truncated values":     binBlob(1, 3, 2, []uint64{0, 2}, []uint64{0, 1}, []float64{1}),
		"huge nnz small file":  binBlob(1, 3, 1<<31, []uint64{0, 1}, []uint64{0}, []float64{1}),
	}
	for name, blob := range cases {
		_, err := ReadSparseBinary(bytes.NewReader(blob))
		if err == nil {
			t.Fatalf("%s: expected error", name)
		}
		if !errors.Is(err, ErrMalformedMatrix) {
			t.Fatalf("%s: error does not wrap ErrMalformedMatrix: %v", name, err)
		}
	}
}

func TestFormatFloatPreservesPrecision(t *testing.T) {
	m := NewDenseFromRows([][]float64{{1.0 / 3.0, 1e-17, -2.5e100}})
	var buf bytes.Buffer
	if err := WriteDense(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDense(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Data {
		if got.Data[i] != v {
			t.Fatalf("value %d not exactly preserved: %v vs %v", i, got.Data[i], v)
		}
	}
}
