package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolNeverDropsAndIsConcurrencySafe(t *testing.T) {
	// Get calls mk outside the pool's lock, so mk may run concurrently.
	var made atomic.Int64
	p := NewPool(func() *[]float64 {
		made.Add(1)
		s := make([]float64, 8)
		return &s
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				v := p.Get()
				p.Put(v)
			}
		}()
	}
	wg.Wait()
	// Drain and refill: at most 8 concurrent holders ever existed, and the
	// pool must hand those same values back without making new ones.
	before := made.Load()
	var held []*[]float64
	for i := int64(0); i < before; i++ {
		held = append(held, p.Get())
	}
	if now := made.Load(); now != before {
		t.Fatalf("draining the pool made %d new values", now-before)
	}
	for _, v := range held {
		p.Put(v)
	}
}
