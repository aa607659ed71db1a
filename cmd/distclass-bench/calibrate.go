package main

import (
	"sort"
	"time"
)

// refLoopNominal is the median duration of one reference loop on the
// host the baseline was recorded on (a 2 vCPU Intel Xeon VM at
// 2.1 GHz).
const refLoopNominal = 18 * time.Millisecond

// calSamples is how many reference loops run before each rep and after
// the last.
const calSamples = 3

// calibrator measures how fast the host currently runs a fixed piece of
// Go work that calls no repository code. On a shared machine that speed
// drifts by tens of percent over minutes and moves every timing with
// it. Scaling a run's timings by refLoopNominal over its median
// reference time reports what the reference host would have measured:
// over 30-second blocks of identical work this halved the spread of
// CPU per message (0.24 to 0.10 on fig2-round, 0.22 to 0.11 on a
// shard run) and of 100k-node set-up time (0.14 to 0.07). A change to
// the measured code moves the scaled numbers as much as the raw ones,
// since the reference loop does not run it.
type calibrator struct {
	// chase is a random cyclic permutation larger than the cache.
	chase   []uint32
	x       uint64
	sink    uint64
	samples []float64
}

func newCalibrator() *calibrator {
	c := &calibrator{chase: make([]uint32, 1<<21), x: 0x9e3779b97f4a7c15}
	for i := range c.chase {
		c.chase[i] = uint32(i)
	}
	// Sattolo's shuffle: a single cycle through every slot.
	for i := len(c.chase) - 1; i > 0; i-- {
		j := int(c.next() % uint64(i))
		c.chase[i], c.chase[j] = c.chase[j], c.chase[i]
	}
	return c
}

func (c *calibrator) next() uint64 {
	c.x ^= c.x << 13
	c.x ^= c.x >> 7
	c.x ^= c.x << 17
	return c.x
}

// sample runs the reference loop n times and records each duration.
func (c *calibrator) sample(n int) {
	for k := 0; k < n; k++ {
		c.samples = append(c.samples, c.loop().Seconds())
	}
}

// loop is the reference work: sort pseudo-random floats, fill and
// probe a map of small heap objects, chase pointers through memory.
func (c *calibrator) loop() time.Duration {
	start := time.Now()
	fs := make([]float64, 1<<15)
	for i := range fs {
		fs[i] = float64(c.next()>>11) / (1 << 53)
	}
	sort.Float64s(fs)
	m := make(map[uint64]*[4]float64, 1<<13)
	for i := 0; i < 1<<13; i++ {
		m[c.next()&0xffff] = &[4]float64{fs[i], fs[i+1], fs[i+2], fs[i+3]}
	}
	for i := 0; i < 1<<14; i++ {
		if v, ok := m[c.next()&0xffff]; ok {
			c.sink += uint64(v[0] * 1e6)
		}
	}
	j := uint32(c.sink) % uint32(len(c.chase))
	for i := 0; i < 1<<17; i++ {
		j = c.chase[j]
	}
	c.sink += uint64(j)
	return time.Since(start)
}

// scale is the factor that converts this run's durations to the
// reference host's: refLoopNominal over the median reference time.
func (c *calibrator) scale() float64 {
	return refLoopNominal.Seconds() / summarize(c.samples).Median
}
