package main

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"syscall"
	"time"

	"dpd"
	"dpd/internal/apps"
	"dpd/internal/client"
	"dpd/internal/loadgen"
)

// The serving workloads drive a fresh dpdserver process over loopback
// TCP from this process alone: at most two connections (the box's CPU
// count) at any time. The generator is open-loop: frame i of a
// connection is due at start + i·interval whatever the server does, and
// every latency is timed from the due time, so a stall also charges the
// frames that queued behind it. The server sees only the frames; their
// values are made here from loadgen.SampleAt (ingest_small_batches) or
// from the SPECfp95 traces (serve_nested_mixed, and the served replay in
// paper_traces' traced run).

// serveSpec describes one serving workload.
type serveSpec struct {
	name       string
	args       []string     // dpdserver engine flags
	opts       []dpd.Option // the same engine, for standalone detectors and in-process pools
	checkpoint bool         // run the durable checkpoint loop
	traces     bool         // streams replay SPECfp95 slices; otherwise loadgen.SampleAt
	streams    int
	frame      int     // samples per frame
	conns      int     // ingest connections
	zipf       float64 // key popularity skew; 0 is uniform
	rate       float64 // fixed offered rate, samples/s over all connections
	queryRate  float64 // GET /streams/{key} per second beside ingest in the untraced run; 0 is none
	limitMs    float64 // latency limit on ingest p99 for the sustained search
	// ladderSamples is how many load samples of the generated frame
	// sequence the traced run replays up the layer ladder (under a
	// second of kernel time per rung).
	ladderSamples int
}

const (
	// checkpointEvery is serve_nested_mixed's checkpoint cadence. At a
	// 30 s run, three checkpoints complete before mem_mb is read and the
	// fourth is not due yet, so every run pays the same number.
	checkpointEvery = 8 * time.Second
	// burstSamples caps the samples one generator iteration sends
	// before it waits on a barrier.
	burstSamples = 2048
	// diffStreams is how many seeded streams the referee replays into
	// standalone detectors after a serving run.
	diffStreams = 8
)

func smallSpec(o options) serveSpec {
	return serveSpec{
		name:          "ingest_small_batches",
		args:          []string{"-engine", "event", "-window", "32"},
		opts:          []dpd.Option{dpd.WithWindow(32)},
		streams:       10000,
		frame:         16,
		conns:         2,
		rate:          o.smallRate,
		limitMs:       o.limit,
		ladderSamples: 1 << 19,
	}
}

func nestedSpec(o options) serveSpec {
	return serveSpec{
		name:          "serve_nested_mixed",
		args:          []string{"-engine", "multiscale"},
		opts:          []dpd.Option{dpd.WithLadder()},
		checkpoint:    true,
		traces:        true,
		streams:       256,
		frame:         256,
		conns:         1,
		zipf:          1.2,
		rate:          o.nestedRate,
		queryRate:     o.queryRate,
		limitMs:       o.limit,
		ladderSamples: 1 << 18,
	}
}

// paperSpec is the served replay of paper_traces' traced run: the layers
// above the kernel, measured on the Table 2 traces. Forty streams, eight
// per trace from seeded offsets, uniform keys, one connection, the
// multiscale engine at serve_nested_mixed's fixed rate. paper_traces'
// end-to-end metrics never pass through these layers.
func paperSpec(o options) serveSpec {
	return serveSpec{
		name:          "paper_traces",
		args:          []string{"-engine", "multiscale"},
		opts:          []dpd.Option{dpd.WithLadder()},
		traces:        true,
		streams:       40,
		frame:         256,
		conns:         1,
		rate:          o.nestedRate,
		ladderSamples: 1 << 18,
	}
}

// values makes every stream's sample sequence: value(key, i) depends
// only on the seed, the key and the stream-local index i.
type values struct {
	small  loadgen.Config
	traces [][]int64 // serve_nested_mixed: stream key replays traces[key%5] ...
	offset []int     // ... from a seeded offset
}

func newValues(spec *serveSpec, seed uint64) *values {
	v := &values{small: loadgen.Config{Period: 8}}
	if !spec.traces {
		return v
	}
	// Stream 0 (the hottest zipf rank) replays hydro2d, the deepest
	// nesting; the order is fixed so the hot streams' kernels do not
	// change with the seed.
	for _, name := range []string{"hydro2d", "turb3d", "apsi", "swim", "tomcatv"} {
		a, _ := apps.ByName(name)
		v.traces = append(v.traces, a.Trace().Values)
	}
	g := newRNG(seed, 1<<20)
	v.offset = make([]int, spec.streams)
	for k := range v.offset {
		v.offset[k] = g.intn(len(v.traces[k%len(v.traces)]))
	}
	return v
}

// fill writes samples start.. of stream key into dst.
func (v *values) fill(key uint64, start uint64, dst []int64) {
	if v.traces == nil {
		for i := range dst {
			dst[i] = loadgen.SampleAt(v.small, key, start+uint64(i)).Value
		}
		return
	}
	tr := v.traces[key%uint64(len(v.traces))]
	j := (v.offset[key] + int(start%uint64(len(tr))))
	for i := range dst {
		dst[i] = tr[j%len(tr)]
		j++
	}
}

// source generates one connection's frames: the stream keys it owns,
// the per-frame key draw and the per-key sample cursors.
type source struct {
	v    *values
	keys []uint64 // owned keys, ascending; zipf rank r draws keys[r]
	g    *rng
	z    *loadgen.Zipf
	sent []uint64 // samples generated per key (indexed by key)
	warm int      // next key of the warm pass
	buf  []int64
}

// newSources partitions the streams over the connections (key k goes to
// connection k mod conns, so each stream has one writer).
func newSources(spec *serveSpec, v *values, seed uint64) []*source {
	sent := make([]uint64, spec.streams)
	out := make([]*source, spec.conns)
	for c := range out {
		s := &source{v: v, g: newRNG(seed, uint64(c)+1), sent: sent, buf: make([]int64, spec.frame)}
		for k := c; k < spec.streams; k += spec.conns {
			s.keys = append(s.keys, uint64(k))
		}
		if spec.zipf > 0 {
			s.z = loadgen.NewZipf(uint64(len(s.keys)), spec.zipf, seed*31+uint64(c))
		}
		out[c] = s
	}
	return out
}

// nextWarm returns the warm-pass frame of the next owned key, or false
// once every owned key has had one.
func (s *source) nextWarm() (uint64, []int64, bool) {
	if s.warm == len(s.keys) {
		return 0, nil, false
	}
	key := s.keys[s.warm]
	s.warm++
	return key, s.take(key), true
}

// next returns the next load frame.
func (s *source) next() (uint64, []int64) {
	var key uint64
	if s.z != nil {
		key = s.keys[s.z.Next()]
	} else {
		key = s.keys[s.g.intn(len(s.keys))]
	}
	return key, s.take(key)
}

func (s *source) take(key uint64) []int64 {
	s.v.fill(key, s.sent[key], s.buf)
	s.sent[key] += uint64(len(s.buf))
	return s.buf
}

// ingestConn is one generator connection.
type ingestConn struct {
	cl  *client.Client
	src *source
	sb  *spanBuf
}

// phaseStats is what one connection saw during one phase.
type phaseStats struct {
	lat        latencies // due → return of the covering Barrier, per frame
	late       latencies // due → send, per frame
	backlogMax int       // frames due but not yet sent, largest seen
	samples    int64
	frames     int64
}

func (p *phaseStats) merge(q phaseStats) {
	p.lat.merge(q.lat)
	p.late.merge(q.late)
	p.backlogMax = max(p.backlogMax, q.backlogMax)
	p.samples += q.samples
	p.frames += q.frames
}

// sleepUntil waits for t with nanosleep, whose ~60µs overshoot is far
// below the Go timer's 1ms granularity here.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// run offers rate samples/s on this connection from start for dur. With
// flood set every frame is due at once (a closed loop bounded by the
// burst cap), which measures capacity.
func (c *ingestConn) run(rate float64, start time.Time, dur time.Duration, flood bool, parent int64) (phaseStats, error) {
	frame := len(c.src.buf)
	burst := max(1, burstSamples/frame)
	interval := float64(frame) / rate * 1e9
	due := func(i int64) time.Time { return start.Add(time.Duration(float64(i) * interval)) }
	end := start.Add(dur)
	var st phaseStats
	pend := make([]time.Time, 0, burst)
	var i int64
	for {
		now := time.Now()
		if !now.Before(end) {
			break
		}
		if !flood && due(i).After(now) {
			sleepUntil(minTime(due(i), end))
			continue
		}
		for n := 0; n < burst; n++ {
			d := due(i)
			if flood {
				d = time.Now()
			} else if d.After(now) || !d.Before(end) {
				break
			}
			key, vals := c.src.next()
			t0 := time.Now()
			if err := c.cl.SendEvents(key, vals); err != nil {
				return st, err
			}
			c.sb.add("client.SendEvents", parent, t0, time.Now())
			st.late.add(d.Sub(start), t0.Sub(d))
			pend = append(pend, d)
			st.samples += int64(len(vals))
			i++
		}
		t0 := time.Now()
		if err := c.cl.Barrier(); err != nil {
			return st, err
		}
		t1 := time.Now()
		c.sb.add("client.Barrier", parent, t0, t1)
		for _, d := range pend {
			st.lat.add(d.Sub(start), t1.Sub(d))
		}
		pend = pend[:0]
		if !flood {
			st.backlogMax = max(st.backlogMax, int(float64(t1.Sub(start))/interval)+1-int(i))
		}
	}
	st.frames = i
	// Frames due but never sent count as late as the phase's end, so a
	// backlog that outgrew the phase still shows as lateness.
	for ; !flood && due(i).Before(end); i++ {
		st.late.add(due(i).Sub(start), end.Sub(due(i)))
	}
	return st, nil
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// offer runs every connection at its share of rate for dur, in
// parallel, and merges what they saw.
func offer(conns []*ingestConn, rate float64, dur time.Duration, flood bool, parent int64) (phaseStats, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		all  phaseStats
		errs []error
	)
	start := time.Now().Add(time.Millisecond)
	for _, c := range conns {
		wg.Add(1)
		go func(c *ingestConn) {
			defer wg.Done()
			st, err := c.run(rate/float64(len(conns)), start, dur, flood, parent)
			mu.Lock()
			defer mu.Unlock()
			all.merge(st)
			if err != nil {
				errs = append(errs, err)
			}
		}(c)
	}
	wg.Wait()
	if len(errs) > 0 {
		return all, errs[0]
	}
	return all, nil
}

// keyPicker draws stream keys for queries and Stat calls.
type keyPicker interface{ Next() uint64 }

// uniformKeys draws keys uniformly from [0,n).
type uniformKeys struct {
	g *rng
	n int
}

func (u uniformKeys) Next() uint64 { return uint64(u.g.intn(u.n)) }

// queryKeys draws query keys from the workload's key popularity: its
// zipf, or uniform when it has none.
func (spec *serveSpec) queryKeys(seed uint64) keyPicker {
	if spec.zipf > 0 {
		return loadgen.NewZipf(uint64(spec.streams), spec.zipf, seed*131+7)
	}
	return uniformKeys{g: newRNG(seed, 131), n: spec.streams}
}

// querier issues GET /streams/{key} open-loop at a fixed rate over one
// keep-alive connection, with keys drawn like the ingest's.
type querier struct {
	b    *bench
	hc   *http.Client
	base string
	z    keyPicker
	sb   *spanBuf
}

// run queries from start until stop is closed and returns each query's
// latency from its due time.
func (q *querier) run(rate float64, start time.Time, stop <-chan struct{}, parent int64) latencies {
	var lat latencies
	var st streamStat
	for i := int64(0); ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * 1e9))
		select {
		case <-stop:
			return lat
		default:
		}
		sleepUntil(due)
		key := q.z.Next()
		t0 := time.Now()
		err := getJSON(q.hc, fmt.Sprintf("%s/streams/%d", q.base, key), &st)
		t1 := time.Now()
		q.sb.add("http.GET /streams/{key}", parent, t0, t1)
		switch {
		case err != nil:
			q.b.fail("query %d: %v", key, err)
		case st.Key != key:
			q.b.fail("query %d answered for key %d", key, st.Key)
		default:
			q.b.ok(1)
		}
		lat.add(due.Sub(start), t1.Sub(due))
	}
}

// session is one started server with its connected generator.
type session struct {
	srv    *serverProc
	conns  []*ingestConn
	v      *values
	sent   []uint64 // samples sent per stream key
	opened time.Time
	hc     *http.Client
	q      *querier
}

// open starts a server, dials the connections and runs the warm pass
// that materializes every stream: the set-up timed by setup_s.
func (b *bench) open(spec *serveSpec, v *values) (*session, time.Duration, error) {
	t0 := time.Now()
	args := append([]string(nil), spec.args...)
	if spec.checkpoint {
		dir, err := b.freshDir("ckpt-")
		if err != nil {
			return nil, 0, err
		}
		args = append(args, "-checkpoint-dir", dir, "-checkpoint-every", checkpointEvery.String(), "-checkpoint-keep", "1")
	}
	srv, err := b.startServer(args)
	if err != nil {
		return nil, 0, err
	}
	srcs := newSources(spec, v, b.opt.seed)
	s := &session{srv: srv, v: v, sent: srcs[0].sent, hc: httpClient(), opened: t0}
	for c, src := range srcs {
		cl, err := client.Dial(client.Config{Addr: srv.ingest, Seed: b.opt.seed + uint64(c)})
		if err != nil {
			b.forget(srv)
			return nil, 0, err
		}
		s.conns = append(s.conns, &ingestConn{cl: cl, src: src, sb: b.tr.buf()})
	}
	var wg sync.WaitGroup
	errs := make([]error, len(s.conns))
	for i, c := range s.conns {
		wg.Add(1)
		go func(i int, c *ingestConn) {
			defer wg.Done()
			for {
				key, vals, ok := c.src.nextWarm()
				if !ok {
					break
				}
				if errs[i] = c.cl.SendEvents(key, vals); errs[i] != nil {
					return
				}
			}
			errs[i] = c.cl.Barrier()
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close(b)
			return nil, 0, fmt.Errorf("warm pass: %w", err)
		}
	}
	return s, time.Since(t0), nil
}

// close ends the connections and stops the server.
func (s *session) close(b *bench) error {
	for _, c := range s.conns {
		c.cl.Close()
	}
	s.conns = nil
	return b.forget(s.srv)
}

// serve runs one serving workload.
func (b *bench) serve(spec serveSpec) error {
	v := newValues(&spec, b.opt.seed)
	n := setups
	if b.opt.trace {
		n = 1 // the traced run reports no set-up time
	}
	var setup []float64
	var s *session
	for i := 0; i < n; i++ {
		if s != nil {
			if err := s.close(b); err != nil {
				return err
			}
		}
		var d time.Duration
		var err error
		if s, d, err = b.open(&spec, v); err != nil {
			return err
		}
		setup = append(setup, d.Seconds())
	}
	measure := time.Duration(b.opt.seconds) * time.Second

	if !b.opt.trace {
		// The untraced run spends its whole time on the sustained-rate
		// search; see RATIONALE.md for why the fixed-rate latencies are
		// reported by the traced run instead.
		rate, err := b.sustained(&spec, s, measure)
		if err != nil {
			return err
		}
		// Read right after the search, before the referee's replays
		// stretch the server's life by a seed-dependent time.
		hwm, err := vmHWM(s.srv.cmd.Process.Pid)
		if err != nil {
			return err
		}
		b.set("mem_mb", "MiB", hwm)
		b.set("setup_s", "s", median(setup))
		b.set("samples_per_s", "1/s", rate)
	} else {
		// The fixed-rate phase: ingest at spec.rate. Queries at the
		// --query-rate run beside it on a one-connection workload, and
		// in a phase of their own right after it (ingest idle) on a
		// two-connection one, so at most two connections carry traffic
		// at a time.
		sb := b.tr.buf()
		phase := sb.open("phase.fixed_rate", -1)
		beside := len(s.conns) == 1
		var stopQ func() latencies
		if beside {
			stopQ = b.startQueries(&spec, s, b.opt.queryRate, phase)
		}
		fixed, err := offer(s.conns, spec.rate, measure/2, false, phase)
		sb.close(phase)
		if !beside {
			phase = sb.open("phase.queries", -1)
			stopQ = b.startQueries(&spec, s, b.opt.queryRate, phase)
			time.Sleep(measure / 4)
		}
		qlat := stopQ()
		if !beside {
			sb.close(phase)
		}
		if err != nil {
			return fmt.Errorf("fixed-rate phase: %w", err)
		}
		b.ok(fixed.frames)
		b.set("gen.ingest_p50_ms", "ms", ms(fixed.lat.pct(0.50)))
		b.set("gen.ingest_p99_ms", "ms", ms(fixed.lat.windowPct(tailWindow(spec.rate/float64(spec.frame)), 0.99, tailMin)))
		b.set("gen.query_p50_ms", "ms", ms(qlat.pct(0.50)))
		b.set("gen.query_p99_ms", "ms", ms(qlat.windowPct(tailWindow(b.opt.queryRate), 0.99, tailMin)))
		b.set("gen.late_ms_p99", "ms", ms(fixed.late.pct(0.99)))
		b.set("gen.backlog_max", "count", float64(fixed.backlogMax))
		send := b.tr.durations("client.SendEvents")
		b.set("client.send_us_p50", "us", us(pctNs(send, 0.50)))
		b.set("client.send_us_p99", "us", us(pctNs(send, 0.99)))
		bar := b.tr.durations("client.Barrier")
		b.set("client.barrier_ms_p50", "ms", ms(pctNs(bar, 0.50)))
		b.set("client.barrier_ms_p99", "ms", ms(pctNs(bar, 0.99)))
	}

	var stats client.Stats
	for _, c := range s.conns {
		cs := c.cl.Stats()
		stats.Reconnects += cs.Reconnects
		stats.ReplayedSamples += cs.ReplayedSamples
	}
	if b.opt.trace {
		b.set("client.reconnects", "count", float64(stats.Reconnects))
		b.set("client.replayed_samples", "count", float64(stats.ReplayedSamples))
	}
	b.failN(int64(stats.Reconnects), "client reconnects")
	b.failN(int64(stats.ReplayedSamples), "samples replayed after a reconnect")

	// Every phase ended on a Barrier, so the server has applied every
	// frame sent. Close the ingest connections before the referee's
	// queries, keeping the run within two connections.
	for _, c := range s.conns {
		c.cl.Close()
	}
	s.conns = nil
	if err := b.referee(&spec, s); err != nil {
		return err
	}
	if err := s.close(b); err != nil {
		return err
	}
	if b.opt.trace {
		return b.ladder(&spec, v)
	}
	return nil
}

// startQueries starts the query generator at rate GET/s (none at 0); the
// returned function stops it and returns each query's latency.
func (b *bench) startQueries(spec *serveSpec, s *session, rate float64, parent int64) (stop func() latencies) {
	if rate <= 0 {
		return func() latencies { return latencies{} }
	}
	if s.q == nil {
		s.q = &querier{b: b, hc: s.hc, base: "http://" + s.srv.http, z: spec.queryKeys(b.opt.seed), sb: b.tr.buf()}
	}
	var lat latencies
	done := make(chan struct{})
	stopc := make(chan struct{})
	go func() {
		defer close(done)
		lat = s.q.run(rate, time.Now(), stopc, parent)
	}()
	return func() latencies {
		close(stopc)
		<-done
		return lat
	}
}

// tailWindow is the window over which a tail percentile is taken for
// operations issued at perSec: whole seconds, at least one, holding half
// again as many as tailMin operations, so every full window qualifies
// and the 99th percentile has ten beyond it.
func tailWindow(perSec float64) time.Duration {
	return max(time.Second, time.Duration(math.Ceil(1.5*tailMin/perSec))*time.Second)
}

const tailMin = 1000

// sustained estimates the offered rate at which a step meets the limit
// half the time: its ingest p99 (median over the step's fifths) stays
// within the latency limit and its backlog does not grow (the
// generator's median lateness in each of the step's last two fifths
// exceeds that of its first fifth by at most half the limit). A flood
// measures capacity C; an up-down staircase then starts at 0.9·C and
// moves up after a pass and down after a failure, by 8% at first and
// half as much after each reversal down to 2%. The estimate is the
// median rate of the last stairTail steps. Unlike a bisection, where one
// early decision spoiled by a host stall moves the result by a quarter
// of the range, every step here weighs the same. Queries run beside
// every step.
func (b *bench) sustained(spec *serveSpec, s *session, budget time.Duration) (float64, error) {
	const (
		stairSteps = 12
		stairTail  = 8
		stepMin    = 0.02
	)
	probe := 2 * time.Second
	stepDur := (budget - probe) / stairSteps
	stopQ := b.startQueries(spec, s, spec.queryRate, -1)
	defer stopQ()
	fl, err := offer(s.conns, 1, probe, true, -1)
	if err != nil {
		return 0, fmt.Errorf("capacity probe: %w", err)
	}
	b.ok(fl.frames)
	capacity := float64(fl.samples) / probe.Seconds()
	limit := time.Duration(spec.limitMs * 1e6)
	rate, step := 0.9*capacity, 0.08
	var tail []float64
	passes, prevOK := 0, false
	for i := 0; i < stairSteps; i++ {
		st, err := offer(s.conns, rate, stepDur, false, -1)
		if err != nil {
			return 0, err
		}
		b.ok(st.frames)
		p99 := st.lat.windowPct(stepDur/5, 0.99, 100)
		// A stall in one fifth (a checkpoint, a host hiccup) must not
		// read as growth, so the later lateness is the lesser of the
		// last two fifths.
		growth := math.Min(st.late.fifthMedian(3, stepDur), st.late.fifthMedian(4, stepDur)) - st.late.fifthMedian(0, stepDur)
		ok := p99 <= float64(limit) && growth <= float64(limit/2) // false on NaN: too few frames
		logf("sustained: %.0f samples/s offered: p99 %.2fms, lateness growth %.2fms, pass %v", rate, ms(p99), ms(growth), ok)
		if i >= stairSteps-stairTail {
			tail = append(tail, rate)
		}
		if ok {
			passes++
		}
		if i > 0 && ok != prevOK {
			step = max(step/2, stepMin)
		}
		prevOK = ok
		if ok {
			rate *= 1 + step
		} else {
			rate /= 1 + step
		}
	}
	if passes == 0 {
		return 0, fmt.Errorf("no step down to %.0f samples/s met the %v limit", rate, limit)
	}
	est := median(tail)
	logf("sustained: capacity probe %.0f samples/s, %d of %d steps passed, estimate %.0f", capacity, passes, stairSteps, est)
	return est, nil
}
