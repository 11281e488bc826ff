package main

import (
	"math/bits"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on shared virtual CPUs whose speed drifts by a
// quarter or more over seconds as other tenants load the host: a probe
// of the nested replay read 154 to 296 ms for the same work within one
// minute. That drift is not the program's, so paper_traces scales its
// in-process kernel times to a nominal host speed: it runs a fixed
// calibration loop right before and after each timed piece of work and
// reports
//
//	time × calibNominal / mean calibration time
//
// The loop is the benchmark's own code, never the program's, so a change
// to the program moves the reported numbers exactly as it moves the raw
// ones. Its shape follows the event kernel (compare each sample with the
// last 1024, XOR the mismatch row against the stored one, count the
// changed bits), so contention that slows the kernel slows the loop
// alike; in the probe above the scaled time stayed within ±6%. Raw
// values are logged to standard error beside the scaled ones. The
// serving workloads are not scaled: the loop did not track the speed of
// a server process.

const (
	calibSamples = 3000
	calibLag     = 1024
	calibWords   = calibLag / 64
	// calibNominal is the loop's time on a quiet host of the kind the
	// benchmark was tuned on (a 2-vCPU Xeon KVM guest).
	calibNominal = 4 * time.Millisecond
)

// calibInput is a fixed sequence with period 269 over 61 values; it
// does not depend on the run's seed.
var calibInput = func() []int64 {
	g := newRNG(20010513, 0)
	period := make([]int64, 269)
	for i := range period {
		period[i] = int64(g.intn(61))
	}
	out := make([]int64, calibSamples)
	for i := range out {
		out[i] = period[i%len(period)]
	}
	return out
}()

// calibState is the loop's working set: a history ring and one row of
// mismatch bits per ring slot (128 KiB, like a 1024-window detector).
type calibState struct {
	hist [calibLag]int64
	rows [calibLag][calibWords]uint64
	sink int
}

// calibrate runs the loop once and returns its duration.
func (c *calibState) calibrate() time.Duration {
	t0 := time.Now()
	changed := 0
	for t, x := range calibInput {
		row := &c.rows[t%calibLag]
		for w := range row {
			var m uint64
			for j := 0; j < 64; j++ {
				if c.hist[(t-w*64-j-1)&(calibLag-1)] != x {
					m |= 1 << j
				}
			}
			changed += bits.OnesCount64(row[w] ^ m)
			row[w] = m
		}
		c.hist[t%calibLag] = x
	}
	c.sink += changed
	return time.Since(t0)
}
