// Package colmean is the column-mean pass of the distributed fits
// (Algorithm 4 line 3): one MapReduce job or one Spark aggregate over the
// sparse input rows. sPCA, the randomized-sketch engines, Mahout-PCA and
// SVD-Bidiag all run it, each under its own job name.
//
// Every task folds its rows into a partial: per-column sums indexed
// directly, the columns it touched in first-touch order, so only those
// cross the wire, and its row count.
package colmean

import (
	"fmt"

	"spca/internal/mapred"
	"spca/internal/matrix"
	"spca/internal/rdd"
)

// keyCount is the MapReduce key of the row count, below every column key.
const keyCount = -1

// MapReduce computes the means of rows' dims columns with one MapReduce job
// named name. Mappers keep their partial in memory (the stateful combiner
// of §4.1) and flush it in Cleanup.
func MapReduce(eng *mapred.Engine, name string, rows []matrix.SparseVector, dims int) ([]float64, error) {
	job := mapred.Job[matrix.SparseVector, int, float64, float64]{
		Name: name,
		NewMapper: func(int) mapred.Mapper[matrix.SparseVector, int, float64] {
			return &partial{}
		},
		Combine: func(a, b float64) float64 { return a + b },
		Reduce: func(_ int, vs []float64, o mapred.Ops) float64 {
			var s float64
			for _, v := range vs {
				s += v
				o.AddOps(1)
			}
			return s
		},
		InputBytes: mapred.BytesOfSparseVec,
		KeyBytes:   mapred.BytesOfInt,
		ValueBytes: mapred.BytesOfFloat64,
		// Keys are the column range plus the row-count slot below it.
		Dense: &mapred.DenseSpec{MinKey: keyCount, Keys: dims - keyCount, Width: 1},
	}
	out, err := mapred.Run(eng, job, rows)
	if err != nil {
		return nil, err
	}
	count := out[keyCount]
	if count == 0 {
		return nil, fmt.Errorf("colmean: %s saw no rows", name)
	}
	mean := make([]float64, dims)
	for j, v := range out {
		if j >= 0 {
			mean[j] = v / count
		}
	}
	return mean, nil
}

// Spark computes the means of y's dims columns with one aggregate named
// name.
func Spark(ctx *rdd.Context, y *rdd.RDD[matrix.SparseVector], name string, dims int) ([]float64, error) {
	agg, err := rdd.Aggregate(y, name,
		func() *partial { return &partial{} },
		func(p *partial, row matrix.SparseVector, ops *rdd.TaskOps) *partial {
			ops.AddOps(p.add(row))
			return p
		},
		func(a, b *partial) *partial { a.merge(b); return a },
		(*partial).bytes,
	)
	if err != nil {
		return nil, err
	}
	defer ctx.Cluster().FreeDriver(agg.bytes())
	if agg.count == 0 {
		return nil, fmt.Errorf("colmean: %s saw no rows", name)
	}
	mean := make([]float64, dims)
	for _, j := range agg.touched {
		mean[j] = agg.sums[j] / agg.count
	}
	return mean, nil
}

// partial is one task's share of the column means. MapReduce runs it as the
// mapper; Spark aggregates it.
type partial struct {
	sums    []float64
	seen    []bool
	touched []int32
	count   float64
}

// add folds row into the sums and returns its op charge.
func (p *partial) add(row matrix.SparseVector) int64 {
	p.grow(row.Len)
	for k, j := range row.Indices {
		p.claim(j)
		p.sums[j] += row.Values[k]
	}
	p.count++
	return int64(row.NNZ())
}

// grow widens the partial to n columns, with room to touch all of them.
func (p *partial) grow(n int) {
	if len(p.sums) >= n {
		return
	}
	sums, seen, touched := make([]float64, n), make([]bool, n), make([]int32, len(p.touched), n)
	copy(sums, p.sums)
	copy(seen, p.seen)
	copy(touched, p.touched)
	p.sums, p.seen, p.touched = sums, seen, touched
}

func (p *partial) claim(j int) {
	if !p.seen[j] {
		p.seen[j] = true
		p.touched = append(p.touched, int32(j))
	}
}

func (p *partial) merge(o *partial) {
	p.grow(len(o.sums))
	for _, j := range o.touched {
		p.claim(int(j))
		p.sums[j] += o.sums[j]
	}
	p.count += o.count
}

// bytes is the modeled wire size: the count, and a key and a sum per touched
// column.
func (p *partial) bytes() int64 { return 16 + int64(len(p.touched))*16 }

func (p *partial) Map(row matrix.SparseVector, out mapred.Emitter[int, float64]) {
	out.AddOps(p.add(row))
}

func (p *partial) Cleanup(out mapred.Emitter[int, float64]) {
	for _, j := range p.touched {
		out.Emit(int(j), p.sums[j])
	}
	out.Emit(keyCount, p.count)
}
