package main

import "time"

// The reference host is shared, and its speed drifts with its other
// tenants' load. Runs of one binary took up to 35% longer at one time
// than at another, every step of a run by about the same factor, and
// the medians of two sets of ten runs half an hour apart differed by up
// to 18%. So the end-to-end timings are reported at a reference speed:
// each run times refKernel, a fixed loop that runs none of the code
// under test, between its set-ups and, with every client paused,
// between its rounds, and scales its timings by refNominalMS over the
// kernel's stepQ-quantile. The kernel follows the host's longer shifts
// (its p10 rose 14% with the kids-build timings between two sets of
// runs) but not every episode of a minute or two, so it narrows the
// spread within a set only in part. The timings as measured are
// printed too.

// refNominalMS is refKernel's p10 on the reference host, 2-vCPU
// linux/amd64, when it is quiet: a timing reported in ms is what the
// step would take on that host at that speed.
const refNominalMS = 1.0

// calEvery is the time between two kernel timings in a timed phase.
const calEvery = 50 * time.Millisecond

// refTable is the kernel's 256 KiB of random words. A global array
// lives outside the Go heap, so the live-heap metric does not see it.
var refTable [1 << 15]uint64

func init() {
	x := uint64(88172645463325252)
	for i := range refTable {
		x = xorshift(x)
		refTable[i] = x
	}
}

var refSink uint64

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// refPass is a fixed, allocation-free mix of arithmetic and random
// reads from refTable.
func refPass() {
	x, acc := uint64(2463534242), uint64(0)
	for i := 0; i < 90000; i++ {
		x = xorshift(x)
		acc += refTable[x%uint64(len(refTable))]
		for k := 0; k < 8; k++ {
			acc = acc*6364136223846793005 + 1442695040888963407
		}
	}
	refSink += acc
}

// refKernel times one refPass, in ms, after an untimed one that brings
// refTable into the cache, so what the program under test left in the
// cache does not change the timing.
func refKernel() float64 {
	refPass()
	start := time.Now()
	refPass()
	return ms(time.Since(start))
}

// calibrate adds n kernel timings to s.
func calibrate(s *series, n int) {
	for i := 0; i < n; i++ {
		s.add(refKernel())
	}
}
