package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"dpd"
	"dpd/internal/apps"
)

// paper_traces replays the paper's own traces in-process on one
// goroutine, so only the detector kernel (internal/core and
// internal/series) runs:
//
//   - nested: the five SPECfp95 loop-address traces through the default
//     ladder, periods checked against Table 2 on every replay;
//   - flat: apsi, swim and tomcatv at their Table 3 flat window (16);
//   - magnitude: the Figure 4 FT CPU trace through the magnitude engine
//     (window 100, confirm 3), m = 44 checked on every replay.
//
// The FT trace is the Figure 4 trace itself (jitter seed 20010513). The
// run's seed orders the replays within each round.

const (
	ftJitterSeed = 20010513
	ftIterations = 50
	ftPeriod     = 44
	flatWindow   = 16
	// flatReps and magReps repeat the short sets within one round so
	// each set's timed span is long against the clock (~15 ms each).
	flatReps = 16
	magReps  = 8
	// setups is how many times set-up is repeated; setup_s is its median.
	setups = 11
)

type nestedApp struct {
	name   string
	vals   []int64
	expect []int
}

type flatApp struct {
	name   string
	vals   []dpd.Sample
	period int
}

// paperRig holds the paper traces and the detectors that replay them.
type paperRig struct {
	nested []nestedApp
	flat   []flatApp
	ft     []dpd.Sample

	ladder *dpd.MultiScaleEngine
	pt     *dpd.PeriodTracker
	got    []int
	flatD  dpd.Detector
	magD   dpd.Detector
}

// newPaperRig builds the traces and detectors and runs one warm replay
// of every set: the set-up a user of the detectors pays once.
func newPaperRig() (*paperRig, error) {
	r := &paperRig{pt: dpd.NewPeriodTracker()}
	for _, a := range apps.SPECfp95() {
		vals := a.Trace().Values
		r.nested = append(r.nested, nestedApp{name: a.Name, vals: vals, expect: a.ExpectPeriods})
		if a.ExpectPeriods[len(a.ExpectPeriods)-1] <= 8 {
			r.flat = append(r.flat, flatApp{name: a.Name, vals: eventSamples(vals), period: a.ExpectPeriods[0]})
		}
	}
	for _, v := range apps.FTCPUTrace(ftIterations, ftJitterSeed).Samples {
		r.ft = append(r.ft, dpd.Sample{Magnitude: v})
	}
	det, err := dpd.New(dpd.WithLadder())
	if err != nil {
		return nil, err
	}
	r.ladder = det.(*dpd.MultiScaleEngine)
	if r.flatD, err = dpd.New(dpd.WithLadder(flatWindow)); err != nil {
		return nil, err
	}
	if r.magD, err = dpd.New(dpd.WithMagnitude(0), dpd.WithWindow(100), dpd.WithConfirm(3)); err != nil {
		return nil, err
	}
	for i := range r.nested {
		if err := r.replayNested(i); err != nil {
			return nil, err
		}
	}
	for i := range r.flat {
		if err := r.replayFlat(i); err != nil {
			return nil, err
		}
	}
	if err := r.replayMag(); err != nil {
		return nil, err
	}
	return r, nil
}

func eventSamples(vals []int64) []dpd.Sample {
	out := make([]dpd.Sample, len(vals))
	for i, v := range vals {
		out[i].Value = v
	}
	return out
}

// replayNested replays nested app i through the ladder from a reset
// state and checks its significant periods against Table 2.
func (r *paperRig) replayNested(i int) error {
	a := &r.nested[i]
	r.ladder.Reset()
	r.pt.Reset()
	ms := r.ladder.Ladder()
	for _, v := range a.vals {
		r.pt.ObserveMulti(ms.Feed(v), ms)
	}
	r.got = r.pt.AppendSignificant(8, r.got[:0])
	if !slices.Equal(r.got, a.expect) {
		return fmt.Errorf("%s: periods %v, Table 2 says %v", a.name, r.got, a.expect)
	}
	return nil
}

// replayFlat replays flat app i at the flat window and checks its lock.
func (r *paperRig) replayFlat(i int) error {
	a := &r.flat[i]
	r.flatD.Reset()
	for _, s := range a.vals {
		r.flatD.Feed(s)
	}
	if st := r.flatD.Snapshot(); !st.Locked || st.Period != a.period {
		return fmt.Errorf("%s: flat lock %v period %d, Table 2 says %d", a.name, st.Locked, st.Period, a.period)
	}
	return nil
}

// replayMag replays the FT trace and checks the Figure 4 periodicity.
func (r *paperRig) replayMag() error {
	r.magD.Reset()
	for _, s := range r.ft {
		r.magD.Feed(s)
	}
	if p := r.magD.Snapshot().Period; p != ftPeriod {
		return fmt.Errorf("ft: magnitude period %d, Figure 4 says m=%d", p, ftPeriod)
	}
	return nil
}

// paperRound is one round's cost per sample of each set in ns, raw and
// scaled to the nominal host speed by the calibration runs bracketing
// the set (calib.go).
type paperRound struct{ nested, flat, mag, nestedRaw, flatRaw, magRaw float64 }

// paperRound replays every set once (the short sets flatReps and
// magReps times), nested apps in an order drawn from g, recording one
// span per set when sb is non-nil.
func (b *bench) paperRound(r *paperRig, g *rng, sb *spanBuf, parent int64) paperRound {
	check := func(err error) {
		if err != nil {
			b.fail("%v", err)
		} else {
			b.ok(1)
		}
	}
	order := make([]int, len(r.nested))
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := g.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	// timeSet runs one set between two calibrations and returns its raw
	// and scaled ns per sample.
	timeSet := func(name string, run func() int64) (raw, scaled float64) {
		c0 := b.cal.calibrate()
		t0 := time.Now()
		n := run()
		t1 := time.Now()
		c1 := b.cal.calibrate()
		sb.add(name, parent, t0, t1)
		raw = perSample(t1.Sub(t0), n)
		return raw, raw * 2 * float64(calibNominal) / float64(c0+c1)
	}
	var out paperRound
	out.nestedRaw, out.nested = timeSet("core.MultiScaleDetector.Feed", func() (n int64) {
		for _, i := range order {
			check(r.replayNested(i))
			n += int64(len(r.nested[i].vals))
		}
		return n
	})
	out.flatRaw, out.flat = timeSet("core.Detector.Feed/flat", func() (n int64) {
		for k := 0; k < flatReps; k++ {
			for i := range r.flat {
				check(r.replayFlat((i + k) % len(r.flat)))
				n += int64(len(r.flat[i].vals))
			}
		}
		return n
	})
	out.magRaw, out.mag = timeSet("core.Detector.Feed/magnitude", func() int64 {
		for k := 0; k < magReps; k++ {
			check(r.replayMag())
		}
		return int64(magReps * len(r.ft))
	})
	return out
}

func (b *bench) paperTraces() error {
	b.cal = new(calibState)
	b.cal.calibrate() // warm its working set
	// Set-up is kernel work too (the warm replays dominate it), so each
	// one is host-scaled like the sets.
	var setup, setupRaw []float64
	var rig *paperRig
	for i := 0; i < setups; i++ {
		c0 := b.cal.calibrate()
		t0 := time.Now()
		r, err := newPaperRig()
		if err != nil {
			return err
		}
		d := time.Since(t0)
		c1 := b.cal.calibrate()
		setupRaw = append(setupRaw, d.Seconds())
		setup = append(setup, d.Seconds()*2*float64(calibNominal)/float64(c0+c1))
		rig = r
		// Collect the previous rig now, untimed, so every set-up starts
		// from the same heap and mem_mb's peak does not depend on where
		// the collector happened to run.
		runtime.GC()
	}
	g := newRNG(b.opt.seed, 0)
	measure := time.Duration(b.opt.seconds) * time.Second

	if !b.opt.trace {
		var rounds []paperRound
		for end := time.Now().Add(measure); time.Now().Before(end); {
			rounds = append(rounds, b.paperRound(rig, g, nil, -1))
		}
		pick := func(f func(paperRound) float64) float64 {
			xs := make([]float64, len(rounds))
			for i, rd := range rounds {
				xs[i] = f(rd)
			}
			return median(xs)
		}
		raw := median(setupRaw)
		b.scaled("setup_s", "s", raw, raw/median(setup))
		// samples_per_s is the geometric mean of the three sets' replay
		// rates, so a change to any one engine moves it in proportion,
		// whatever the sets' lengths. Each set's ns per sample is logged.
		logRate := 0.0
		for _, m := range []struct {
			name        string
			raw, scaled func(paperRound) float64
		}{
			{"nested", func(r paperRound) float64 { return r.nestedRaw }, func(r paperRound) float64 { return r.nested }},
			{"flat", func(r paperRound) float64 { return r.flatRaw }, func(r paperRound) float64 { return r.flat }},
			{"magnitude", func(r paperRound) float64 { return r.magRaw }, func(r paperRound) float64 { return r.mag }},
		} {
			raw, scaled := pick(m.raw), pick(m.scaled)
			logf("%s set: %.2f ns per sample scaled, %.2f raw", m.name, scaled, raw)
			logRate += math.Log(1e9/scaled) / 3
		}
		b.set("samples_per_s", "1/s", math.Exp(logRate))
		hwm, err := vmHWM(0)
		if err != nil {
			return err
		}
		b.set("mem_mb", "MiB", hwm)
		return nil
	}

	// Traced run. The layers above the kernel are measured by serving
	// the Table 2 traces (paperSpec); then untraced and traced rounds
	// alternate for the same time, so the span cost shows as
	// trace.overhead_frac, and the core metrics come from the traced
	// rounds' spans, replacing the served replay's.
	if err := b.serve(paperSpec(b.opt)); err != nil {
		return err
	}
	sb := b.tr.buf()
	phase := sb.open("phase.paper_rounds", -1)
	var plain, traced []float64
	var samples int64
	for end := time.Now().Add(measure); time.Now().Before(end); {
		plain = append(plain, b.paperRound(rig, g, nil, -1).nested)
		traced = append(traced, b.paperRound(rig, g, sb, phase).nested)
		samples += rig.samplesPerRound()
	}
	sb.close(phase)
	var spent time.Duration
	for _, name := range []string{"core.MultiScaleDetector.Feed", "core.Detector.Feed/flat", "core.Detector.Feed/magnitude"} {
		spent += b.tr.total(name)
	}
	b.set("core.ns_per_sample", "ns", perSample(spent, samples))
	pm := median(plain)
	b.set("trace.overhead_frac", "ratio", (median(traced)-pm)/pm)
	locked, total, changes := rig.lockStats()
	b.set("core.locked_frac", "ratio", float64(locked)/float64(total))
	b.set("core.period_changes", "count", float64(changes))
	return nil
}

// samplesPerRound is the number of samples one paperRound feeds.
func (r *paperRig) samplesPerRound() int64 {
	var n int64
	for _, a := range r.nested {
		n += int64(len(a.vals))
	}
	for _, a := range r.flat {
		n += int64(flatReps * len(a.vals))
	}
	return n + int64(magReps*len(r.ft))
}

// lockStats replays every set once, untimed, counting the samples whose
// result is locked and the period changes of each detector's primary
// result.
func (r *paperRig) lockStats() (locked, total, changes int64) {
	var lc lockCounter
	r.ladder.Reset()
	for _, a := range r.nested {
		r.ladder.Reset()
		lc.reset()
		for _, v := range a.vals {
			lc.observe(r.ladder.Feed(dpd.Sample{Value: v}))
		}
		locked, total, changes = locked+lc.locked, total+lc.total, changes+lc.changes
	}
	for _, a := range r.flat {
		r.flatD.Reset()
		lc.reset()
		for _, s := range a.vals {
			lc.observe(r.flatD.Feed(s))
		}
		locked, total, changes = locked+lc.locked, total+lc.total, changes+lc.changes
	}
	r.magD.Reset()
	lc.reset()
	for _, s := range r.ft {
		lc.observe(r.magD.Feed(s))
	}
	return locked + lc.locked, total + lc.total, changes + lc.changes
}

// lockCounter folds one stream's results into lock statistics.
type lockCounter struct {
	locked, total, changes int64
	period                 int
}

func (c *lockCounter) reset() { *c = lockCounter{} }

func (c *lockCounter) observe(r dpd.Result) {
	c.total++
	if !r.Locked {
		return
	}
	c.locked++
	if c.period != 0 && r.Period != c.period {
		c.changes++
	}
	c.period = r.Period
}
