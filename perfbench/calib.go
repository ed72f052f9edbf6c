package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. The speed a shared host gives a process drifts
// over minutes, by more than a run's own spread, and moves every timing of
// a run together. So a run times a fixed reference kernel — the
// benchmark's own code, never the library's — at intervals through its
// set-up, timed phase and maintenance probe, with the workload paused, and
// scales each phase's timings to a host on which the kernel runs at
// refNominalNS: a timing t reports as t · refNominalNS / ref, where ref is
// the median kernel time of the samples taken during its phase. The table
// a run prints gives each timing's raw value beside it.
//
// The kernel has two halves of about equal cost, because the workloads
// are bound by both: it sorts a slice that fits the core's own caches, and
// it follows a chain of dependent loads at pseudo-random places in a table
// far larger than the shared cache. A host whose neighbours load only the
// memory system slows the second half alone.

// refNominalNS is the kernel time, in ns per element, that scaled timings
// are expressed at: about what a 2.1 GHz Xeon vCPU measures.
const refNominalNS = 200

const (
	// calSlice is how long one calibration sample times the kernel.
	calSlice = 100 * time.Millisecond
	// calEvery is the interval between samples during a timed phase.
	calEvery = time.Second
	// kernelLen is how many elements one kernel round sorts.
	kernelLen = 50_000
	// tableLen is the chained table's length in uint32s: 64 MiB, mapped
	// outside the Go heap so heap_mb and collections never see it.
	tableLen = 16 << 20
)

// calibrator collects the run's kernel samples and, during a timed phase,
// pauses the workload to take them: clients hold gate shared across each
// op, and a sample holds it exclusively.
type calibrator struct {
	workers int // kernels run at once in a sample
	gate    sync.RWMutex
	bufs    [][]int // one per kernel, so sampling allocates nothing

	mu      sync.Mutex
	samples []float64     // ns per element per worker
	held    time.Duration // time the workload was held paused
}

// sample runs the reference kernel on c.workers goroutines at once for
// calSlice, after a collection so no garbage of the workload's is being
// marked meanwhile, and records its time per element.
func (c *calibrator) sample() {
	table := chainTable()
	if c.bufs == nil {
		for range c.workers {
			c.bufs = append(c.bufs, make([]int, kernelLen))
		}
		// The first round after start-up runs slow, up to twice the
		// time; it is run once untimed.
		kernel(c.bufs[0], table, 0, calSlice)
	}
	runtime.GC()
	var wg sync.WaitGroup
	n := make([]int, c.workers)
	start := time.Now()
	for w := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n[w] = kernel(c.bufs[w], table, uint64(w), calSlice)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := 0
	for _, k := range n {
		total += k
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, float64(elapsed.Nanoseconds())*float64(c.workers)/float64(total))
}

// pause holds the workload while it takes one sample.
func (c *calibrator) pause() {
	c.gate.Lock()
	defer c.gate.Unlock()
	start := time.Now()
	c.sample()
	c.mu.Lock()
	c.held += time.Since(start)
	c.mu.Unlock()
}

// every pauses the workload for a sample each calEvery until stop closes,
// and returns once it has stopped.
func (c *calibrator) every(stop <-chan struct{}) {
	t := time.NewTicker(calEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			c.pause()
		}
	}
}

// heldFor returns how long the workload has been held paused.
func (c *calibrator) heldFor() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.held
}

// mark returns how many samples have been taken.
func (c *calibrator) mark() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.samples)
}

// scale returns the factor that takes timings measured while samples
// [from, to) were taken to the nominal host, and the median kernel time
// it is derived from.
func (c *calibrator) scale(from, to int) (factor, ref float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ref = median(c.samples[from:to])
	return refNominalNS / ref, ref
}

// kernel runs rounds of the reference kernel for at least dur and returns
// how many elements they covered. A round refills a with pseudo-random
// integers drawn from a fixed stream and sorts it, then follows len(a)/2
// dependent loads through table, which take about as long; the step count enters each address, so
// the chain never falls into a short cycle.
func kernel(a []int, table []uint32, stream uint64, dur time.Duration) int {
	r := rand.New(rand.NewPCG(datasetSeed, stream))
	mask := uint32(len(table) - 1)
	at := uint32(stream)
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < dur {
		for i := range a {
			a[i] = r.IntN(1 << 30)
		}
		slices.Sort(a)
		for i := range uint32(len(a) / 2) {
			at = (table[at] + i*0x9e3779b1) & mask
		}
		n += len(a)
	}
	chainEnd.Add(at)
	return n
}

// chainEnd keeps the chained loads from being optimised away.
var chainEnd atomic.Uint32

// chainTable maps the chained table outside the Go heap, once, and fills
// it from a fixed stream.
var chainTable = sync.OnceValue(func() []uint32 {
	b, err := syscall.Mmap(-1, 0, 4*tableLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("map the calibration table: %v", err))
	}
	t := unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), tableLen)
	r := rand.New(rand.NewPCG(datasetSeed, 0))
	for i := range t {
		t[i] = r.Uint32()
	}
	return t
})
