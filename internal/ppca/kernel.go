package ppca

import (
	"math/bits"

	"spca/internal/mapred"
	"spca/internal/matrix"
)

// The per-row math of sPCA's consolidated pass (Alg. 4/5, §3.2), written
// once for every engine: the MapReduce mappers, the Spark partitions, the
// local and streaming scans, and the ablation baselines all run their rows
// through latentRow, rowScratch and partial.

// latentRow fills xi with row's centered latent row Xi_c = (Yi - Ym)·CM,
// touching only the row's entries. Under mean propagation (§3.1) row is the
// raw sparse Yi and the mean's image Xm = Ym·CM is subtracted; otherwise row
// is the densified Yi - Ym and needs no correction.
func latentRow(row matrix.SparseVector, em *emDriver, meanProp bool, xi []float64) {
	if meanProp {
		for k := range xi {
			xi[k] = -em.xm[k]
		}
	} else {
		clear(xi)
	}
	for k, j := range row.Indices {
		matrix.AXPY(row.Values[k], em.cm.Row(j), xi)
	}
}

// rowScratch is one task's per-row working set. Every buffer is overwritten
// per row, so it never needs a reset.
type rowScratch struct {
	xi, ct []float64 // the latent row Xi_c and Cᵀ·Yiᵀ, d each
	xc     []float64 // Xi·Cᵀ, D long, for the non-associative ss3 order
	idx    []int     // the densified row, D long, for the ablations
	vals   []float64 // without mean propagation and Algorithm 2
}

// newRowScratch gives xi and ct one allocation. Allocated apart, two local
// ss3 workers' buffers could share cache lines, and that sweep ran ~10%
// slower (2-core Xeon).
func newRowScratch(d int) rowScratch {
	buf := make([]float64, 2*d)
	return rowScratch{xi: buf[:d:d], ct: buf[d:]}
}

// densify materializes Yi - Ym as a fully dense "sparse" row in the scratch:
// exactly the cost the mean-propagation optimization avoids.
func (s *rowScratch) densify(row matrix.SparseVector, mean []float64) matrix.SparseVector {
	if cap(s.idx) < row.Len {
		s.idx = make([]int, row.Len)
		s.vals = make([]float64, row.Len)
	}
	return matrix.DensifyCenteredInto(row, mean, s.idx[:row.Len], s.vals[:row.Len])
}

// latent fills s.xi with row's latent row and returns the row the task goes
// on with: row itself under mean propagation, else Yi - Ym densified into
// the scratch.
func (s *rowScratch) latent(row matrix.SparseVector, em *emDriver, meanProp bool) matrix.SparseVector {
	if !meanProp {
		row = s.densify(row, em.mean)
	}
	latentRow(row, em, meanProp, s.xi)
	return row
}

// ss3Term returns row's term Xi_c·(Cᵀ·Yiᵀ) of ss3, with s.xi holding Xi_c,
// and the row's op charge, its latent row included. The associative order
// (§4.1, Eq. 3) multiplies Cᵀ with the sparse row first, O(nnz·d). The
// other order forms the dense D-vector Xi·Cᵀ, O(D·d): "most of the work ...
// will be wasted since most of these elements will be multiplied with zero
// elements" (§4.1).
func (s *rowScratch) ss3Term(row matrix.SparseVector, c *matrix.Dense, assoc bool) (float64, int64) {
	nnz, d := int64(row.NNZ()), int64(len(s.xi))
	if assoc {
		clear(s.ct)
		for k, j := range row.Indices {
			matrix.AXPY(row.Values[k], c.Row(j), s.ct)
		}
		return matrix.Dot(s.xi, s.ct), 2*nnz*d + d
	}
	if len(s.xc) != c.R {
		s.xc = make([]float64, c.R)
	}
	denseXC(s.xi, c, s.xc)
	var t float64
	for k, j := range row.Indices {
		t += s.xc[j] * row.Values[k]
	}
	return t, nnz*d + int64(c.R)*d + nnz
}

// blockFloats is the target size of one block of YtX rows. A block holds the
// largest power of two of d-wide rows that fits, at least one.
const blockFloats = 4096

// partial is one task's share of the consolidated pass: Σ Yiᵀ·Xi_c over the
// columns its rows touch, Σ Xi_cᵀ·Xi_c and Σ Xi_c, plus the task's row
// scratch. Engines keep one per task for the whole fit and reuse it for the
// ss3 pass: MapReduce's mappers emit it, Spark's accumulator merges it, and
// the local and streaming engines copy it out.
//
// YtX rows are claimed on first touch from fixed blocks indexed by claim
// order. Blocks are kept across passes, so a claimed row never moves and
// growth never copies; only claimed rows are emitted, merged or charged.
type partial struct {
	rowScratch
	d       int
	shift   uint         // a block holds 1<<shift rows
	off     []int32      // per column: claim index, -1 while untouched
	touched []int32      // claimed columns, in claim order
	blocks  [][]float64  // YtX rows, claim order
	xtx     matrix.Dense // d x d
	sumX    []float64
}

func newPartial(d, dims int) *partial { return newPartials(1, d, dims)[0] }

// newPartials makes one partial per task. Their fixed-size buffers are
// carved from shared arenas, so a fit's partials cost a handful of
// allocations rather than several per task; the row blocks come on demand.
func newPartials(tasks, d, dims int) []*partial {
	ps := make([]*partial, tasks)
	all := make([]partial, tasks)
	floats := make([]float64, tasks*(d*d+3*d))
	ints := make([]int32, tasks*2*dims)
	for j := range ints {
		ints[j] = -1
	}
	carve := func(n int) []float64 {
		v := floats[:n:n]
		floats = floats[n:]
		return v
	}
	shift := uint(bits.Len(uint(max(blockFloats/d, 1))) - 1)
	nb := (dims + 1<<shift - 1) >> shift // blocks a task can claim
	blocks := make([][]float64, tasks*nb)
	for t := range ps {
		p := &all[t]
		p.d, p.shift = d, shift
		p.xtx = matrix.Dense{R: d, C: d, Data: carve(d * d)}
		p.sumX, p.xi, p.ct = carve(d), carve(d), carve(d)
		p.off, p.touched = ints[:dims:dims], ints[dims:dims:2*dims]
		p.blocks = blocks[t*nb : t*nb : (t+1)*nb]
		ints = ints[2*dims:]
		ps[t] = p
	}
	return ps
}

// reset empties the partial for a new pass or task attempt. The blocks stay.
func (p *partial) reset() {
	for _, j := range p.touched {
		p.off[j] = -1
	}
	p.touched = p.touched[:0]
	p.xtx.Zero()
	clear(p.sumX)
}

// row returns column j's YtX row, claiming a zeroed one on first touch.
func (p *partial) row(j int) []float64 {
	if o := p.off[j]; o >= 0 {
		return p.slot(int(o))
	}
	return p.claim(j)
}

func (p *partial) claim(j int) []float64 {
	o := len(p.touched)
	if o>>p.shift == len(p.blocks) {
		p.blocks = append(p.blocks, make([]float64, p.d<<p.shift))
	}
	p.off[j] = int32(o)
	p.touched = append(p.touched, int32(j))
	r := p.slot(o)
	clear(r)
	return r
}

func (p *partial) slot(o int) []float64 {
	k := (o & (1<<p.shift - 1)) * p.d
	return p.blocks[o>>p.shift][k : k+p.d : k+p.d]
}

// scatter adds row's YtX contribution Yiᵀ·xi and returns its op charge.
func (p *partial) scatter(row matrix.SparseVector, xi []float64) int64 {
	for k, j := range row.Indices {
		matrix.AXPY(row.Values[k], xi, p.row(j))
	}
	return int64(row.NNZ()) * int64(p.d)
}

// add folds one row with latent row xi into YtX, XtX and ΣX and returns its
// op charge. A row without entries adds only XtX and ΣX. XtX fills only its
// upper triangle; into, or the engine's assembly of the emitted partials,
// mirrors it once per pass. The charge is that of the full d×d update.
func (p *partial) add(row matrix.SparseVector, xi []float64) int64 {
	ops := p.scatter(row, xi)
	matrix.SymOuterAdd(&p.xtx, xi)
	matrix.AXPY(1, xi, p.sumX)
	d := int64(p.d)
	return 2*ops + d*d + d
}

// merge adds o into p, claiming o's columns in o's claim order.
func (p *partial) merge(o *partial) {
	for _, j := range o.touched {
		matrix.AXPY(1, o.row(int(j)), p.row(int(j)))
	}
	matrix.AXPY(1, o.xtx.Data, p.xtx.Data)
	matrix.AXPY(1, o.sumX, p.sumX)
}

// bytes is the modeled wire size: the claimed YtX rows with their keys, XtX
// and ΣX.
func (p *partial) bytes() int64 {
	d := int64(p.d)
	return int64(len(p.touched))*(8+d*8) + d*d*8 + d*8
}

// into overwrites s with the partial's sums, XtX mirrored to the full
// matrix, and returns it.
func (p *partial) into(s jobSums) jobSums {
	s.ytx.Zero()
	for _, j := range p.touched {
		copy(s.ytx.Row(int(j)), p.row(int(j)))
	}
	copy(s.xtx.Data, p.xtx.Data)
	matrix.MirrorUpper(s.xtx)
	copy(s.sumX, p.sumX)
	return s
}

// emitRows emits every claimed YtX row, in claim order. Each key goes out
// once per task, so the engine's in-place combiner merge never writes into
// the partial.
func (p *partial) emitRows(out mapred.Emitter[int, []float64]) {
	for _, j := range p.touched {
		out.Emit(int(j), p.row(int(j)))
	}
}

// fnormPartial is one task's share of ||Y - Ym||²_F. MapReduce's FnormJob
// runs it as the mapper; Spark's aggregates it.
type fnormPartial struct {
	mean      []float64
	msum      float64 // ||Ym||², the term of an all-zero row
	efficient bool
	sum       float64
	scr       rowScratch // densify buffers of Algorithm 2
}

// add folds row's term into the sum and returns its op charge. Algorithm 3
// (§3.4) starts from the all-zero row's term and fixes up only the non-zeros;
// Algorithm 2 densifies the row and sweeps all D entries.
func (p *fnormPartial) add(row matrix.SparseVector) int64 {
	if p.efficient {
		s := p.msum
		for k, j := range row.Indices {
			dv := row.Values[k] - p.mean[j]
			s += dv*dv - p.mean[j]*p.mean[j]
		}
		p.sum += s
		return int64(2 * row.NNZ())
	}
	var s float64
	for _, dv := range p.scr.densify(row, p.mean).Values {
		s += dv * dv
	}
	p.sum += s
	return int64(2 * row.Len)
}

func (p *fnormPartial) Map(row matrix.SparseVector, out mapred.Emitter[int, float64]) {
	out.AddOps(p.add(row))
}

func (p *fnormPartial) Cleanup(out mapred.Emitter[int, float64]) { out.Emit(keyFro, p.sum) }
