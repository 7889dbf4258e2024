package matrix

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// Text format for sparse matrices ("spmx"):
//
//	spmx <rows> <cols> <nnz>
//	<row> <col> <value>      (one triplet per line, rows grouped and ordered)
//
// Text format for dense matrices ("dmx"):
//
//	dmx <rows> <cols>
//	<v0> <v1> ... <v_{c-1}>  (one row per line)
//
// Both, and the driver snapshots and model files that embed dmx blocks, are
// written and read by the one text codec at the end of this file
// (TextWriter, TextReader).

// ErrMalformedMatrix is the sentinel wrapped by every parse failure in this
// package's readers — bad headers, out-of-range or unordered indices,
// count mismatches, and non-finite values. Readers never panic on untrusted
// input; they return an error that errors.Is-matches this sentinel.
var ErrMalformedMatrix = errors.New("matrix: malformed input")

// malformed builds a parse error wrapping ErrMalformedMatrix.
func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformedMatrix, fmt.Sprintf(format, args...))
}

// Plausibility bounds on untrusted headers, so a corrupt or hostile file
// cannot make a reader allocate unbounded memory before the first data
// byte is validated.
const (
	maxReadDim   = 1 << 32 // rows/cols/nnz ceiling for sparse inputs
	maxDenseRead = 1 << 27 // element ceiling for dense inputs (1 GiB)
)

// checkSparseHeader validates an untrusted spmx/SPMB header.
func checkSparseHeader(rows, cols, nnz int64) error {
	if rows < 0 || cols < 0 || nnz < 0 || rows > maxReadDim || cols > maxReadDim || nnz > maxReadDim {
		return malformed("implausible sparse header %d x %d nnz %d", rows, cols, nnz)
	}
	return nil
}

// WriteSparse writes m in the spmx text format.
func WriteSparse(w io.Writer, m *Sparse) error {
	t := NewTextWriter(w)
	t.Word("spmx").Int(int64(m.R)).Int(int64(m.C)).Int(int64(m.NNZ())).End()
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for k, j := range row.Indices {
			t.Int(int64(i)).Int(int64(j)).Float(row.Values[k]).End()
		}
	}
	return t.Flush()
}

// ReadSparse parses the spmx text format. Untrusted input is fully
// validated — indices out of range or out of order, header mismatches, and
// non-finite values all return errors wrapping ErrMalformedMatrix.
func ReadSparse(r io.Reader) (*Sparse, error) {
	m, _, err := ReadSparseBudget(r, 0)
	return m, err
}

// ReadSparseBudget is ReadSparse with an opt-in bad-record budget: up to
// budget malformed triplet lines are skipped (dropped from the matrix)
// instead of failing the parse, and the number skipped is returned. The
// header nnz check loosens by exactly the skipped count, so a file that lost
// records to corruption still parses deterministically while anything worse
// still fails. budget <= 0 is the strict ReadSparse behaviour.
func ReadSparseBudget(r io.Reader, budget int) (*Sparse, int64, error) {
	t := NewTextReader(r)
	h := t.sparseHeader()
	b := NewSparseBuilder(h.cols)
	skipped, err := t.scanSparse(h, budget, func(_ int, row SparseVector) error {
		b.AddRow(row.Indices, row.Values)
		return nil
	})
	if err != nil {
		return nil, skipped, err
	}
	return b.Build(), skipped, nil
}

// WriteDense writes m in the dmx text format.
func WriteDense(w io.Writer, m *Dense) error {
	t := NewTextWriter(w)
	t.Dense(m)
	return t.Flush()
}

// ReadDense parses the dmx text format, rejecting implausible headers,
// ragged rows, and non-finite values with errors wrapping ErrMalformedMatrix.
// Lines after the last row are not read.
func ReadDense(r io.Reader) (*Dense, error) {
	t := NewTextReader(r)
	m := t.Dense()
	return m, t.Err()
}

// WriteSparseBinary writes m in a compact little-endian binary layout:
// magic "SPMB", rows, cols, nnz (uint64), then RowPtr, Cols (uint64 each)
// and Vals (float64 bits).
func WriteSparseBinary(w io.Writer, m *Sparse) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("SPMB"); err != nil {
		return err
	}
	hdr := []uint64{uint64(m.R), uint64(m.C), uint64(m.NNZ())}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	for _, p := range m.RowPtr {
		if err := binary.Write(bw, binary.LittleEndian, uint64(p)); err != nil {
			return err
		}
	}
	for _, c := range m.Cols {
		if err := binary.Write(bw, binary.LittleEndian, uint64(c)); err != nil {
			return err
		}
	}
	for _, v := range m.Vals {
		if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(v)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSparseBinary parses the SPMB binary layout. The full CSR invariant is
// validated — a non-decreasing row-pointer array ending at nnz, in-range and
// strictly increasing column indices within each row, finite values — so a
// corrupt file can never produce a matrix that panics downstream. Buffers
// grow incrementally, bounded by the bytes actually present, so a hostile
// header cannot trigger a huge up-front allocation.
func ReadSparseBinary(r io.Reader) (*Sparse, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, malformed("short binary magic: %v", err)
	}
	if string(magic) != "SPMB" {
		return nil, malformed("bad binary magic %q", magic)
	}
	var rows, cols, nnz uint64
	for _, p := range []*uint64{&rows, &cols, &nnz} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, malformed("short binary header: %v", err)
		}
	}
	if err := checkSparseHeader(int64(rows), int64(cols), int64(nnz)); err != nil {
		return nil, err
	}
	// Cap speculative allocation: slices start at a modest capacity and grow
	// as data is actually read, so "nnz = 2^32" with a 50-byte file fails on
	// the read, not in make().
	capFor := func(n uint64) int {
		if n > 1<<16 {
			return 1 << 16
		}
		return int(n)
	}
	m := &Sparse{
		R: int(rows), C: int(cols),
		RowPtr: make([]int, 0, capFor(rows+1)),
		Cols:   make([]int, 0, capFor(nnz)),
		Vals:   make([]float64, 0, capFor(nnz)),
	}
	var u uint64
	prev := uint64(0)
	for i := uint64(0); i <= rows; i++ {
		if err := binary.Read(br, binary.LittleEndian, &u); err != nil {
			return nil, malformed("binary rowptr truncated at %d: %v", i, err)
		}
		if u > nnz || u < prev {
			return nil, malformed("binary rowptr not monotone at %d: %d (prev %d, nnz %d)", i, u, prev, nnz)
		}
		prev = u
		m.RowPtr = append(m.RowPtr, int(u))
	}
	if m.RowPtr[0] != 0 {
		return nil, malformed("binary rowptr must start at 0, got %d", m.RowPtr[0])
	}
	if m.RowPtr[rows] != int(nnz) {
		return nil, malformed("binary rowptr/nnz mismatch: %d vs %d", m.RowPtr[rows], nnz)
	}
	for i := uint64(0); i < nnz; i++ {
		if err := binary.Read(br, binary.LittleEndian, &u); err != nil {
			return nil, malformed("binary column indices truncated at %d: %v", i, err)
		}
		if u >= cols {
			return nil, malformed("binary column index %d out of range (cols %d)", u, cols)
		}
		m.Cols = append(m.Cols, int(u))
	}
	for i := uint64(0); i < nnz; i++ {
		if err := binary.Read(br, binary.LittleEndian, &u); err != nil {
			return nil, malformed("binary values truncated at %d: %v", i, err)
		}
		v := math.Float64frombits(u)
		if v != v || math.IsInf(v, 0) {
			return nil, malformed("non-finite binary value at %d", i)
		}
		m.Vals = append(m.Vals, v)
	}
	for i := 0; i < m.R; i++ {
		for k := m.RowPtr[i] + 1; k < m.RowPtr[i+1]; k++ {
			if m.Cols[k] <= m.Cols[k-1] {
				return nil, malformed("binary columns out of order in row %d (%d after %d)", i, m.Cols[k], m.Cols[k-1])
			}
		}
	}
	return m, nil
}

// maxLine is the longest line a TextReader reads. The longest the program
// writes is a snapshot's or model's mean line, about 1.7 MB at the paper's
// widest input (Tweets, D = 71,504).
const maxLine = 64 << 20

// TextWriter writes the text formats: lines of fields, each after the first
// preceded by one space. A float takes the shortest form that parses back to
// the same float64 (strconv's 'g', -1), so every file round-trips bit for
// bit. Numbers are formatted into one reused buffer, so a field costs no
// allocation. A write error sticks in the buffer, and Flush returns it.
type TextWriter struct {
	bw  *bufio.Writer
	buf []byte // the number being formatted
	mid bool   // the current line has a field
}

// NewTextWriter returns a TextWriter that buffers its lines into w.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{bw: bufio.NewWriter(w), buf: make([]byte, 0, 32)}
}

// sep starts a field: a space unless it is the first of its line.
func (t *TextWriter) sep() {
	if t.mid {
		t.bw.WriteByte(' ')
	}
	t.mid = true
}

// Word writes s as the next field, as it stands.
func (t *TextWriter) Word(s string) *TextWriter {
	t.sep()
	t.bw.WriteString(s)
	return t
}

func (t *TextWriter) field(b []byte) *TextWriter {
	t.sep()
	t.bw.Write(b)
	return t
}

// Int writes v in decimal.
func (t *TextWriter) Int(v int64) *TextWriter { return t.field(strconv.AppendInt(t.buf[:0], v, 10)) }

// Uint writes v in decimal.
func (t *TextWriter) Uint(v uint64) *TextWriter { return t.field(strconv.AppendUint(t.buf[:0], v, 10)) }

// Float writes v in the shortest form that parses back to v.
func (t *TextWriter) Float(v float64) *TextWriter {
	return t.field(strconv.AppendFloat(t.buf[:0], v, 'g', -1, 64))
}

// Floats writes each of vs as a field.
func (t *TextWriter) Floats(vs []float64) *TextWriter {
	for _, v := range vs {
		t.Float(v)
	}
	return t
}

// End ends the line.
func (t *TextWriter) End() {
	t.bw.WriteByte('\n')
	t.mid = false
}

// Dense writes m as a dmx block: the header line, then a line per row.
func (t *TextWriter) Dense(m *Dense) {
	t.Word("dmx").Int(int64(m.R)).Int(int64(m.C)).End()
	for i := 0; i < m.R; i++ {
		t.Floats(m.Row(i)).End()
	}
}

// Flush writes out the buffered lines and returns the first write error.
func (t *TextWriter) Flush() error { return t.bw.Flush() }

// TextReader reads the text formats line by line, and each line field by
// field. Fields are split at runs of white space, exactly as strings.Fields
// splits them, and each is parsed once; floats must be finite. A line must
// be read to its end before the next. The first failure sticks: later reads
// return zero values without parsing, and Err returns it. A parse failure
// wraps ErrMalformedMatrix and names its line.
type TextReader struct {
	sc   *bufio.Scanner
	n    int    // the current line's number, from 1
	rest []byte // the current line's unread part
	err  error
}

// NewTextReader returns a TextReader over r's lines, which may be up to
// 64 MiB long.
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	return &TextReader{sc: sc}
}

// Err returns the first failure, or nil.
func (t *TextReader) Err() error { return t.err }

// Fail records a parse failure on the current line, unless one is recorded.
func (t *TextReader) Fail(format string, args ...any) {
	if t.err == nil {
		t.err = malformed("line %d: %s", t.n, fmt.Sprintf(format, args...))
	}
}

// next moves to the next line, once the current one is read to its end. It
// reports false at the end of the input and after a failure.
func (t *TextReader) next() bool {
	if f, _ := nextField(t.rest); f != nil {
		t.Fail("unexpected field %q", f)
	}
	if t.err != nil {
		return false
	}
	t.n++
	t.rest = nil
	if !t.sc.Scan() {
		if err := t.sc.Err(); err != nil {
			t.err = fmt.Errorf("matrix: reading line %d: %w", t.n, err)
		}
		return false
	}
	t.rest = t.sc.Bytes()
	return true
}

// line moves to the next line, which must exist.
func (t *TextReader) line() bool {
	if t.next() {
		return true
	}
	t.Fail("unexpected end of input")
	return false
}

// Expect moves to the next line, which must be as TextWriter writes it:
// printable ASCII fields, each after the first preceded by one space. A
// non-empty label must be its first field, and is read.
func (t *TextReader) Expect(label string) {
	if !t.line() {
		return
	}
	if !canonical(t.rest) {
		t.Fail("bad line %q", t.rest)
	} else if label != "" && !t.Is(label) {
		t.Fail("want a %s line, got %q", label, t.rest)
	}
}

// Raw moves to the next line, which must begin with prefix, and returns the
// rest of it as it stands.
func (t *TextReader) Raw(prefix string) string {
	if !t.line() {
		return ""
	}
	rest, ok := bytes.CutPrefix(t.rest, []byte(prefix))
	if !ok {
		t.Fail("want a line starting %q, got %q", prefix, t.rest)
		return ""
	}
	t.rest = nil
	return string(rest)
}

// header reads a dmx or spmx header line with fmt.Sscanf, whose loose
// matching is part of both formats: any blanks between the counts, and text
// after the last count ignored.
func (t *TextReader) header(format string, counts ...any) bool {
	if !t.line() {
		return false
	}
	if _, err := fmt.Sscanf(string(t.rest), format, counts...); err != nil {
		t.Fail("bad header %q", t.rest)
		return false
	}
	t.rest = nil
	return true
}

// Is reads the next field if it is word, and reports whether it was.
func (t *TextReader) Is(word string) bool {
	f, rest := nextField(t.rest)
	if f == nil || string(f) != word {
		return false
	}
	t.rest = rest
	return true
}

// field reads the next field, which must exist. It returns nil after a
// failure.
func (t *TextReader) field() []byte {
	if t.err != nil {
		return nil
	}
	f, rest := nextField(t.rest)
	if f == nil {
		t.Fail("missing field")
	}
	t.rest = rest
	return f
}

// check records a field's parse error.
func (t *TextReader) check(err error) {
	if err != nil {
		t.Fail("%v", err)
	}
}

// Int reads the next field as a decimal int.
func (t *TextReader) Int() int { return int(t.int(strconv.IntSize)) }

// Int64 reads the next field as a decimal int64.
func (t *TextReader) Int64() int64 { return t.int(64) }

func (t *TextReader) int(bits int) int64 {
	f := t.field()
	if f == nil {
		return 0
	}
	v, err := strconv.ParseInt(string(f), 10, bits)
	t.check(err)
	return v
}

// Uint reads the next field as a decimal uint64.
func (t *TextReader) Uint() uint64 {
	f := t.field()
	if f == nil {
		return 0
	}
	v, err := strconv.ParseUint(string(f), 10, 64)
	t.check(err)
	return v
}

// Float reads the next field as a finite float64.
func (t *TextReader) Float() float64 { return t.float(t.field()) }

// Floats appends the line's remaining fields to dst as finite float64s.
func (t *TextReader) Floats(dst []float64) []float64 {
	for t.err == nil {
		f, rest := nextField(t.rest)
		if f == nil {
			break
		}
		t.rest = rest
		dst = append(dst, t.float(f))
	}
	return dst
}

func (t *TextReader) float(f []byte) float64 {
	if f == nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(f), 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("non-finite value %q", f)
	}
	t.check(err)
	return v
}

// Dense reads a dmx block: the header line, then a line of values per row.
// The lines after the block are left unread. It returns nil after a
// failure.
func (t *TextReader) Dense() *Dense {
	var rows, cols int
	if !t.header("dmx %d %d", &rows, &cols) {
		return nil
	}
	if rows < 0 || cols < 0 || (cols > 0 && rows > maxDenseRead/cols) {
		t.Fail("implausible dmx header %d x %d", rows, cols)
		return nil
	}
	// The matrix grows as its rows arrive, so a hostile header cannot make
	// the reader allocate more than the input backs.
	m := &Dense{R: rows, C: cols, Data: make([]float64, 0, min(rows*cols, 1<<16))}
	for i := 0; i < rows && t.line(); i++ {
		n := len(m.Data)
		if m.Data = t.Floats(m.Data); len(m.Data)-n != cols {
			t.Fail("dmx row %d has %d values, want %d", i, len(m.Data)-n, cols)
		}
	}
	if t.err != nil {
		return nil
	}
	return m
}

// spmxHeader is the shape an spmx header line declares.
type spmxHeader struct{ rows, cols, nnz int }

// sparseHeader reads an spmx header line.
func (t *TextReader) sparseHeader() (h spmxHeader) {
	if t.header("spmx %d %d %d", &h.rows, &h.cols, &h.nnz) {
		if err := checkSparseHeader(int64(h.rows), int64(h.cols), int64(h.nnz)); err != nil {
			t.err = err
		}
	}
	return h
}

// scanSparse reads the triplet lines after the spmx header h and calls emit
// for every row in order, empty rows included; the row passed to emit is
// reused after the call. Up to budget malformed triplet lines are skipped
// instead of failing the scan, and it returns how many were. The triplets
// read must number the header's nnz, short by at most the lines skipped.
func (t *TextReader) scanSparse(h spmxHeader, budget int, emit func(int, SparseVector) error) (skipped int64, err error) {
	row := SparseVector{Len: h.cols}
	cur, prevCol, nnz := 0, -1, 0
	emitTo := func(i int) error {
		for ; cur < i; cur++ {
			if err := emit(cur, row); err != nil {
				return err
			}
			row.Indices, row.Values = row.Indices[:0], row.Values[:0]
			prevCol = -1
		}
		return nil
	}
	for t.next() {
		if f, _ := nextField(t.rest); f == nil {
			continue // a blank line
		}
		ri, ci, v := t.Int(), t.Int(), t.Float()
		if f, _ := nextField(t.rest); f != nil {
			t.Fail("spmx triplet has a fourth field %q", f)
		}
		switch {
		case t.err != nil:
		case ri < cur:
			t.Fail("spmx rows out of order at row %d", ri)
		case ri >= h.rows:
			t.Fail("spmx row index %d out of range (rows %d)", ri, h.rows)
		case ci < 0 || ci >= h.cols:
			t.Fail("spmx column index %d out of range (cols %d)", ci, h.cols)
		case ri == cur && ci <= prevCol:
			t.Fail("spmx columns out of order in row %d (%d after %d)", ri, ci, prevCol)
		}
		if t.err != nil {
			if skipped >= int64(budget) {
				return skipped, t.err
			}
			skipped++
			t.err, t.rest = nil, nil
			continue
		}
		if err := emitTo(ri); err != nil {
			return skipped, err
		}
		prevCol = ci
		row.Indices = append(row.Indices, ci)
		row.Values = append(row.Values, v)
		nnz++
	}
	if t.err != nil {
		return skipped, t.err
	}
	if err := emitTo(h.rows); err != nil {
		return skipped, err
	}
	if nnz > h.nnz || int64(h.nnz-nnz) > skipped {
		return skipped, malformed("spmx nnz mismatch: header %d, parsed %d (%d skipped)", h.nnz, nnz, skipped)
	}
	return skipped, nil
}

// nextField splits the first field off line as strings.Fields splits:
// fields are separated by runs of Unicode white space. The field is nil
// when line has none.
func nextField(line []byte) (field, rest []byte) {
	start := -1
	for i := 0; i < len(line); {
		r, n := rune(line[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(line[i:])
		}
		if !unicode.IsSpace(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			return line[start:i], line[i:]
		}
		i += n
	}
	if start < 0 {
		return nil, nil
	}
	return line[start:], nil
}

// canonical reports whether line is as TextWriter writes it: printable
// ASCII fields, each after the first preceded by one space.
func canonical(line []byte) bool {
	for i, c := range line {
		if c == ' ' {
			if i == 0 || i == len(line)-1 || line[i+1] == ' ' {
				return false
			}
		} else if c < '!' || c > '~' {
			return false
		}
	}
	return true
}
