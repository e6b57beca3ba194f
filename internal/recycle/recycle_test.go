package recycle

import (
	"sync"
	"testing"
)

func TestPoolIsLastInFirstOut(t *testing.T) {
	var p Pool[[]int]
	if _, ok := p.Get(); ok {
		t.Fatal("Get on an empty pool reported a value")
	}
	a, b := make([]int, 1), make([]int, 2)
	p.Put(a)
	p.Put(b)
	if v, ok := p.Get(); !ok || len(v) != 2 {
		t.Fatalf("first Get = %v, %v, want the last value put", v, ok)
	}
	if v, ok := p.Get(); !ok || len(v) != 1 {
		t.Fatalf("second Get = %v, %v, want the first value put", v, ok)
	}
	if _, ok := p.Get(); ok {
		t.Fatal("Get after draining reported a value")
	}
}

// TestPoolConcurrent hands values between goroutines; under -race it
// checks the pool publishes what a Put wrote to the goroutine that Gets it.
func TestPoolConcurrent(t *testing.T) {
	var p Pool[*[4]int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v, ok := p.Get()
				if !ok {
					v = new([4]int)
				}
				v[0] = i
				p.Put(v)
			}
		}()
	}
	wg.Wait()
	n := 0
	for {
		if _, ok := p.Get(); !ok {
			break
		}
		n++
	}
	if n < 1 || n > 4 {
		t.Fatalf("pool holds %d values after 4 goroutines each kept at most one, want 1-4", n)
	}
}
