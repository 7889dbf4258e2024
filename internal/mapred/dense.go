// The slab store. Every hot sPCA job — column means, the Frobenius norm, the
// consolidated YtX/XtX/ΣX pass, ss3, and the rsvd projection and Bᵀ jobs —
// shuffles a small dense integer key range whose values are flat float64
// vectors. For that shape the map store's per-key maps and slices are pure
// overhead: the slab store keeps each map task's output in a pooled slab
// ([]float64 rows plus an offset table) and gathers a key's values straight
// from the slabs.
//
// The store changes the layout, not the job: Run's lifecycle — attempts,
// fault draws, checksums, charges and trace spans — is the same for both
// stores, and dense_test.go pins results and metrics equal to the map
// store's under fault plans.
package mapred

import (
	"fmt"

	"spca/internal/cluster"
)

// DenseSpec selects the slab store for a job. It applies to jobs whose keys
// form a dense integer interval [MinKey, MinKey+Keys) and whose mappers emit
// each key at most once per task — always true for the stateful in-mapper
// combiners (§4.1), which flush one value per key from Cleanup. With a
// Combine, duplicate in-task emits merge in place (the merged value must
// keep the stored length); without one they panic (a naive mapper that
// needs per-emit boxing should not declare a spec).
//
// Lifetime contract: values handed to Reduce (and results that alias them,
// e.g. a Reduce returning vs[0]) point into pooled slabs and stay valid only
// until the engine's next Run; drivers must copy what they keep, exactly as
// they already must for pooled mapper buffers. Reduce must not retain the
// values slice itself — it is reused between keys.
type DenseSpec struct {
	// MinKey is the smallest key in the job's key space (e.g. the negative
	// composite keys routing XtX/ΣX partials).
	MinKey int
	// Keys is the size of the key interval: valid keys satisfy
	// MinKey <= k < MinKey+Keys.
	Keys int
	// Width is the value width in float64 words (1 for scalar-valued jobs).
	Width int
	// WideKeys overrides Width for individual keys — e.g. the d²-wide XtX
	// partial riding in a job of d-wide YtX rows.
	WideKeys map[int]int
}

// widthOf returns the declared width bound for a key slot.
func (s *DenseSpec) widthOf(slot int) int {
	if s.WideKeys != nil {
		if w, ok := s.WideKeys[s.MinKey+slot]; ok {
			return w
		}
	}
	return s.Width
}

// slabKey pools slabs by layout shape rather than by spec pointer, so
// engines that outlive many fits (each building fresh specs) keep a bounded
// pool: one entry per distinct job shape.
type slabKey struct {
	minKey, keys, width int
}

func (s *DenseSpec) key() slabKey {
	return slabKey{minKey: s.MinKey, keys: s.Keys, width: s.Width}
}

// denseSlab is one map task's flat shuffle payload: value rows packed into a
// single []float64 in first-touch order, with a per-slot offset table in
// place of a map. Slabs are pooled on the engine and reused across jobs and
// EM iterations; data handed out through Reduce stays valid until the next
// Run checks the slab out again.
type denseSlab struct {
	spec    *DenseSpec
	data    []float64 // packed value rows, first-touch order
	off     []int32   // per slot: row offset into data, -1 if untouched
	n       []int32   // per slot: logical row length
	touched []int32   // touched slots in first-touch order
	total   int       // float capacity if every slot were touched (growth bound)
}

// prepare readies the slab for a fresh Run under spec. Same-spec reuse (the
// steady state of a fit loop holding one spec per job) only rewinds the
// touched slots; a different spec of the same shape rebuilds the offset
// table but keeps the storage.
func (s *denseSlab) prepare(spec *DenseSpec) {
	if s.spec == spec && len(s.off) == spec.Keys {
		s.reset()
		return
	}
	s.spec = spec
	s.total = spec.Keys * spec.Width
	for k, w := range spec.WideKeys {
		if slot := k - spec.MinKey; slot >= 0 && slot < spec.Keys {
			s.total += w - spec.Width
		}
	}
	s.data = s.data[:0]
	s.touched = s.touched[:0]
	if cap(s.off) < spec.Keys {
		s.off = make([]int32, spec.Keys)
		s.n = make([]int32, spec.Keys)
	}
	s.off = s.off[:spec.Keys]
	s.n = s.n[:spec.Keys]
	for i := range s.off {
		s.off[i] = -1
	}
}

// reset rewinds the slab for a retry of a failed attempt (or the next Run's
// first attempt): only the touched slots are cleared, so a warm slab resets
// in O(touched) with zero allocations.
func (s *denseSlab) reset() {
	for _, slot := range s.touched {
		s.off[slot] = -1
	}
	s.touched = s.touched[:0]
	s.data = s.data[:0]
}

// claim reserves a width-long row for slot and returns it for the first
// store. Rows pack in first-touch order, so slab memory scales with the keys
// a task actually emits, not with the full key space. The region is not
// zeroed: the store overwrites all of it, and nothing reads beyond the
// logical length. Growth is 4× but capped at the spec's total float count —
// a slab whose spec fits entirely under the first allocation (e.g. a
// single-scalar job) allocates exactly once and never grows again.
func (s *denseSlab) claim(slot, width int) []float64 {
	o := len(s.data)
	if cap(s.data) < o+width {
		c := min(max(4*cap(s.data), o+width, 64), s.total)
		if c < o+width { // spec changed shape under pooling; never under-size
			c = o + width
		}
		grown := make([]float64, o, c)
		copy(grown, s.data)
		s.data = grown
	}
	s.data = s.data[:o+width]
	s.off[slot] = int32(o)
	s.touched = append(s.touched, int32(slot))
	return s.data[o : o+width]
}

// row returns slot's stored logical row, or nil when untouched.
func (s *denseSlab) row(slot int) []float64 {
	o := s.off[slot]
	if o < 0 {
		return nil
	}
	return s.data[o : int(o)+int(s.n[slot])]
}

// slabsFor checks out splits prepared slabs for a dense job, reusing pooled
// storage shape-for-shape.
func (e *Engine) slabsFor(spec *DenseSpec, splits int) []*denseSlab {
	key := spec.key()
	e.mu.Lock()
	free := e.slabs[key]
	take := len(free)
	if take > splits {
		take = splits
	}
	slabs := make([]*denseSlab, splits)
	copy(slabs, free[len(free)-take:])
	if take > 0 {
		e.slabs[key] = free[:len(free)-take]
	}
	e.mu.Unlock()
	miss := splits - take
	if miss > 0 {
		// Cold checkout: carve the missing slabs and their offset tables from
		// two batch allocations instead of 3×miss small ones.
		block := make([]denseSlab, miss)
		tables := make([]int32, 2*miss*spec.Keys)
		for i, j := 0, 0; i < splits; i++ {
			if slabs[i] == nil {
				s := &block[j]
				s.off = tables[:spec.Keys:spec.Keys]
				s.n = tables[spec.Keys : 2*spec.Keys : 2*spec.Keys]
				tables = tables[2*spec.Keys:]
				slabs[i] = s
				j++
			}
		}
	}
	for i := range slabs {
		slabs[i].prepare(spec)
	}
	return slabs
}

// putSlabs returns a Run's slabs to the pool. The data is not cleared — the
// job's result map may still alias it — so the previous Run's views go stale
// only when the next checkout rewinds the slab, which is the documented
// lifetime contract.
func (e *Engine) putSlabs(spec *DenseSpec, slabs []*denseSlab) {
	key := spec.key()
	e.mu.Lock()
	if e.slabs == nil {
		e.slabs = make(map[slabKey][]*denseSlab)
	}
	e.slabs[key] = append(e.slabs[key], slabs...)
	e.mu.Unlock()
}

// denseCodec adapts one value type onto flat slab rows without boxing.
type denseCodec[V any] struct {
	// width is the logical row length of a value.
	width func(v V) int
	// store writes v into a freshly claimed row of exactly width(v) words.
	store func(dst []float64, v V)
	// view reconstructs the value from a stored logical row.
	view func(row []float64) V
	// merge folds a duplicate emit into the stored row via the job's
	// Combine, keeping the stored length.
	merge func(dst []float64, v V, combine func(a, b V) V)
}

// vecCodec lays []float64 values out as slab rows directly.
var vecCodec = denseCodec[[]float64]{
	width: func(v []float64) int { return len(v) },
	store: func(dst, v []float64) { copy(dst, v) },
	view:  func(row []float64) []float64 { return row[:len(row):len(row)] },
	merge: func(dst, v []float64, combine func(a, b []float64) []float64) {
		merged := combine(dst, v)
		if len(merged) != len(dst) {
			panic("mapred: dense Combine changed the value length")
		}
		if len(merged) > 0 && &merged[0] != &dst[0] {
			copy(dst, merged)
		}
	},
}

// scalarCodec packs float64 values one word per row.
var scalarCodec = denseCodec[float64]{
	width: func(float64) int { return 1 },
	store: func(dst []float64, v float64) { dst[0] = v },
	view:  func(row []float64) float64 { return row[0] },
	merge: func(dst []float64, v float64, combine func(a, b float64) float64) {
		dst[0] = combine(dst[0], v)
	},
}

// denseEmitter is the slab store's Emitter: emits land in the task's slab.
// Steady state (warm slab, in-range keys) performs zero allocations per emit.
type denseEmitter[V any] struct {
	opsCounter
	name    string
	slab    *denseSlab
	combine func(a, b V) V
	cd      denseCodec[V]
}

// reset rewinds the slab and the ops count for a fresh attempt.
func (em *denseEmitter[V]) reset() {
	em.slab.reset()
	em.n = 0
}

func (em *denseEmitter[V]) Emit(k int, v V) {
	s := em.slab
	spec := s.spec
	slot := k - spec.MinKey
	if slot < 0 || slot >= spec.Keys {
		panic(fmt.Sprintf("mapred: job %q emitted key %d outside its DenseSpec range [%d,%d)",
			em.name, k, spec.MinKey, spec.MinKey+spec.Keys))
	}
	if o := s.off[slot]; o >= 0 {
		if em.combine == nil {
			panic(fmt.Sprintf("mapred: job %q emitted key %d twice in one task without a Combine",
				em.name, k))
		}
		em.cd.merge(s.data[o:int(o)+int(s.n[slot])], v, em.combine)
		return
	}
	w := em.cd.width(v)
	if maxW := spec.widthOf(slot); w > maxW {
		panic(fmt.Sprintf("mapred: job %q emitted a width-%d value for key %d; DenseSpec allows %d",
			em.name, w, k, maxW))
	}
	em.cd.store(s.claim(slot, w), v)
	s.n[slot] = int32(w)
}

// slabStore is the store of a DenseSpec job: one pooled slab per map task.
type slabStore[V any] struct {
	e      *Engine
	spec   *DenseSpec
	cd     denseCodec[V]
	slabs  []*denseSlab
	ems    []denseEmitter[V]
	gather []V // per reduce task, room for one value per map task
}

// newSlabStore checks out splits slabs for spec from the engine's pool.
func newSlabStore[V any](e *Engine, name string, spec *DenseSpec, cd denseCodec[V], combine func(a, b V) V, splits int) (*slabStore[V], error) {
	if spec.Keys <= 0 || spec.Width <= 0 {
		return nil, fmt.Errorf("mapred: job %q has an invalid DenseSpec (Keys=%d, Width=%d)",
			name, spec.Keys, spec.Width)
	}
	s := &slabStore[V]{e: e, spec: spec, cd: cd, slabs: e.slabsFor(spec, splits), ems: make([]denseEmitter[V], splits)}
	for t := range s.ems {
		s.ems[t] = denseEmitter[V]{name: name, slab: s.slabs[t], combine: combine, cd: cd}
	}
	return s, nil
}

func (s *slabStore[V]) emitter(t int) (Emitter[int, V], *opsCounter) {
	em := &s.ems[t]
	em.reset()
	return em, &em.opsCounter
}

// payload walks the slab's touched slots in first-touch order; the digest
// is order-independent, so this stamps what the map store's walk would.
func (s *slabStore[V]) payload(t int, kbf func(int) int64, vbf func(V) int64) (int64, uint64) {
	var total int64
	var dig cluster.PayloadDigest
	slab := s.slabs[t]
	for _, slot := range slab.touched {
		kb := kbf(int(slot) + s.spec.MinKey)
		vb := vbf(s.cd.view(slab.row(int(slot))))
		total += kb + vb
		dig.Add(kb, vb)
	}
	return total, dig.Sum()
}

func (s *slabStore[V]) keys() []int {
	seen := make([]bool, s.spec.Keys)
	n := 0
	for _, slab := range s.slabs {
		for _, slot := range slab.touched {
			if !seen[slot] {
				seen[slot] = true
				n++
			}
		}
	}
	keys := make([]int, 0, n)
	for slot, ok := range seen {
		if ok {
			keys = append(keys, s.spec.MinKey+slot)
		}
	}
	return keys
}

func (s *slabStore[V]) reducers(n int) { s.gather = make([]V, n*len(s.slabs)) }

// values gathers k's values into reduce task r's part of the gather buffer.
func (s *slabStore[V]) values(r, k int) []V {
	slot, sp := k-s.spec.MinKey, len(s.slabs)
	buf := s.gather[r*sp : r*sp : (r+1)*sp]
	for _, slab := range s.slabs {
		if row := slab.row(slot); row != nil {
			buf = append(buf, s.cd.view(row))
		}
	}
	return buf
}

func (s *slabStore[V]) release() { s.e.putSlabs(s.spec, s.slabs) }
