package parallel

import "sync"

// Pool is a mutex-guarded free list of scratch values, used to recycle
// per-task mapper/partition scratch across EM iterations. Get never returns
// a value to two callers at once and Put never discards, so after the first
// iteration warms the pool, a fit's steady state performs no pool-related
// allocation. Values come back with whatever state their last user left;
// users must re-initialize before reading.
type Pool[T any] struct {
	mu   sync.Mutex
	mk   func() T
	free []T
}

// NewPool returns a pool whose Get falls back to mk when empty.
func NewPool[T any](mk func() T) *Pool[T] { return &Pool[T]{mk: mk} }

// Get pops a free value or makes a new one.
func (p *Pool[T]) Get() T {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	return p.mk()
}

// Put returns a value to the pool.
func (p *Pool[T]) Put(v T) {
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
}
