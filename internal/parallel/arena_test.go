package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestArenaReusesSlices(t *testing.T) {
	var a Arena
	s := a.Floats(64)
	if len(s) != 64 {
		t.Fatalf("len = %d, want 64", len(s))
	}
	s[0] = 42
	a.PutFloats(s)
	r := a.Floats(32)
	if cap(r) < 64 {
		t.Fatalf("expected recycled slice, got cap %d", cap(r))
	}
	z := a.FloatsZeroed(32)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("FloatsZeroed[%d] = %v, want 0", i, v)
		}
	}
	i1 := a.Ints(16)
	a.PutInts(i1)
	i2 := a.Ints(8)
	if cap(i2) < 16 {
		t.Fatalf("expected recycled int slice, got cap %d", cap(i2))
	}
	if n := testing.AllocsPerRun(100, func() {
		f := a.Floats(64)
		a.PutFloats(f)
		k := a.Ints(16)
		a.PutInts(k)
	}); n != 0 {
		t.Fatalf("warm arena allocated %v per run, want 0", n)
	}
}

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

func TestForWorkerMatchesForAndBoundsWorkerIndex(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 3} {
		SetWorkers(workers)
		n := 1000
		got := make([]int, n)
		ForWorker(n, 10, func(w, lo, hi int) {
			if w < 0 || w >= workers {
				t.Errorf("worker index %d out of [0,%d)", w, workers)
			}
			for i := lo; i < hi; i++ {
				got[i] = i * i
			}
		})
		for i := range got {
			if got[i] != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, got[i], i*i)
			}
		}
	}
}
