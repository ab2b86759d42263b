package main

import (
	"math/rand"
	"sort"
	"time"
)

// The host a benchmark shares can change speed by up to 2x for minutes
// at a time: on a shared 2-vCPU KVM guest the same simulation ran in
// 0.094 s in one phase and 0.179 s in another, with CPU time moving
// with wall time (contention for the host's caches and memory, not
// steal). calibrate is a fixed kernel of the same kind of work as the
// simulator (small allocations, map updates, pointer chasing, sorting)
// that does not depend on any program code. Across those two phases its
// time moved 1.58x, so timing it next to every unit and scaling the
// unit times by it cuts the host's drift from 96% to about 19%.
//
// calRef is the kernel's time, in seconds, on the reference host state
// the end-to-end times are scaled to.
const calRef = 0.025

type calNode struct {
	key         int
	left, right *calNode
}

var calSink int

// calibrate runs the kernel once and returns its wall time.
func calibrate() time.Duration {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(1))
	m := make(map[int]int)
	var root *calNode
	for i := 0; i < 60000; i++ {
		k := rng.Intn(1 << 20)
		m[k] += i
		p := &root
		for *p != nil {
			if k < (*p).key {
				p = &(*p).left
			} else {
				p = &(*p).right
			}
		}
		*p = &calNode{key: k}
	}
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sort.Float64s(xs)
	calSink += len(m)
	return time.Since(t0)
}
