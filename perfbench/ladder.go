package main

import (
	"bufio"
	"bytes"
	"runtime"
	"sync"
	"time"

	"dpd"
	"dpd/internal/client"
	"dpd/internal/server"
	"dpd/internal/wire"
)

// The traced run of a serving workload ends by replaying the workload's
// own generated frames (the warm pass, then the load frames, exactly as
// the generator made them for this seed) up the layer ladder, one rung
// at a time:
//
//	core         one standalone detector per key (Detector.Feed)
//	pool         Pool.FeedBatch per frame
//	decode+pool  server.DecodeFrame, then Pool.FeedBatch
//	loopback     a fresh dpdserver over one TCP connection
//
// Each rung feeds the warm pass untimed, so every stream exists before
// the clock starts, and then times the load frames. The difference
// between adjacent rungs is the self time of the layer added.

// ladderFrame is one generated frame in the forms each rung consumes.
type ladderFrame struct {
	key     uint64
	samples []dpd.Sample
	keyed   []dpd.KeyedSample
	payload []byte // the frame's wire payload, as DecodeFrame reads it
}

// ladderFrames regenerates the workload's frames: every connection's
// warm pass, then load frames round-robin over the connections until
// spec.ladderSamples load samples.
func ladderFrames(spec *serveSpec, v *values, seed uint64) (warm, load []ladderFrame, err error) {
	srcs := newSources(spec, v, seed)
	var enc server.Enc
	mk := func(key uint64, vals []int64) (ladderFrame, error) {
		f := ladderFrame{key: key, samples: make([]dpd.Sample, len(vals)), keyed: make([]dpd.KeyedSample, len(vals))}
		for i, x := range vals {
			f.samples[i] = dpd.Sample{Value: x}
			f.keyed[i] = dpd.KeyedSample{Key: key, Value: x}
		}
		framed := enc.AppendEventBatch(nil, key, vals)
		p, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(framed)), server.MaxFrame, nil)
		f.payload = p
		return f, err
	}
	for _, s := range srcs {
		for {
			key, vals, ok := s.nextWarm()
			if !ok {
				break
			}
			f, err := mk(key, vals)
			if err != nil {
				return nil, nil, err
			}
			warm = append(warm, f)
		}
	}
	for n := 0; n < spec.ladderSamples; {
		for _, s := range srcs {
			key, vals := s.next()
			f, err := mk(key, vals)
			if err != nil {
				return nil, nil, err
			}
			load = append(load, f)
			n += len(vals)
		}
	}
	return warm, load, nil
}

func sampleCount(frames []ladderFrame) int64 {
	var n int64
	for _, f := range frames {
		n += int64(len(f.samples))
	}
	return n
}

// ladder runs the rungs and sets every pool, server and ladder metric.
func (b *bench) ladder(spec *serveSpec, v *values) error {
	warm, load, err := ladderFrames(spec, v, b.opt.seed)
	if err != nil {
		return err
	}
	n := sampleCount(load)
	sb := b.tr.buf()
	newDet := func() dpd.Detector { return dpd.Must(spec.opts...) }
	newPool := func() (*dpd.Pool, error) {
		return dpd.NewPool(dpd.PoolConfig{NewDetector: newDet})
	}

	perKey := make([][]*ladderFrame, spec.streams)
	for i := range load {
		perKey[load[i].key] = append(perKey[load[i].key], &load[i])
	}

	// The untimed-span rungs and the key-major core pass run ladderReps
	// times, interleaved, so they see the same host conditions; each
	// reports its median. The ladder's core rung is frame-major: the
	// detectors indexed directly by key and fed in the workload's frame
	// order (the pool's working set, without the pool).
	var keyT, coreT, poolT, decT []float64
	var want []dpd.Stat
	var lc lockCounter
	for r := 0; r < ladderReps; r++ {
		rung := sb.open("rung.core_per_key", -1)
		var d time.Duration
		d, want, lc = coreKeyMajor(sb, rung, newDet, warm, perKey)
		keyT = append(keyT, float64(d))
		sb.close(rung)
		rung = sb.open("rung.core", -1)
		coreT = append(coreT, float64(corePass(newDet, spec.streams, warm, load)))
		sb.close(rung)
		runtime.GC()
		rung = sb.open("rung.pool", -1)
		d, err := b.poolPass(newPool, warm, load, nil, nil, -1, nil)
		if err != nil {
			return err
		}
		poolT = append(poolT, float64(d))
		sb.close(rung)
		runtime.GC()
		rung = sb.open("rung.decode_pool", -1)
		if d, err = b.decodePoolPass(newPool, warm, load, nil, -1); err != nil {
			return err
		}
		decT = append(decT, float64(d))
		sb.close(rung)
		runtime.GC()
	}
	coreNs := perSample(time.Duration(median(keyT)), n)
	b.set("core.ns_per_sample", "ns", coreNs)
	b.set("core.locked_frac", "ratio", float64(lc.locked)/float64(lc.total))
	b.set("core.period_changes", "count", float64(lc.changes))
	plain := time.Duration(median(decT))
	poolNs := perSample(time.Duration(median(poolT)), n)
	b.set("ladder.core_ns_per_sample", "ns", perSample(time.Duration(median(coreT)), n))
	b.set("ladder.pool_ns_per_sample", "ns", poolNs)
	b.set("ladder.decode_pool_ns_per_sample", "ns", perSample(plain, n))
	b.set("pool.self_ns_per_sample", "ns", poolNs-coreNs)

	// pool, traced: per-call FeedBatch latencies and, beside them, Stat
	// at the query rate.
	rung := sb.open("rung.pool_traced", -1)
	stat := &statReader{rate: b.opt.queryRate, z: spec.queryKeys(b.opt.seed), sb: b.tr.buf()}
	if _, err := b.poolPass(newPool, warm, load, sb, stat, rung, func(p *dpd.Pool) error {
		return b.poolMetrics(spec, p, want, sb, rung)
	}); err != nil {
		return err
	}
	sb.close(rung)
	lat := b.tr.durations("pool.Stat")
	b.set("pool.stat_us_p50", "us", us(pctNs(lat, 0.50)))
	b.set("pool.stat_us_p99", "us", us(pctNs(lat, 0.99)))
	q := b.tr.durations("http.GET /streams/{key}")
	b.set("server.query_self_us_p50", "us", us(pctNs(q, 0.50)-pctNs(lat, 0.50)))
	runtime.GC()

	// decode alone, one span over every load frame.
	rung = sb.open("rung.decode", -1)
	var fr server.Frame
	t0 := time.Now()
	for _, f := range load {
		if err := server.DecodeFrame(f.payload, &fr); err != nil {
			return err
		}
	}
	t1 := time.Now()
	sb.add("server.DecodeFrame×n", rung, t0, t1)
	sb.close(rung)
	b.set("server.decode_ns_per_frame", "ns", perSample(t1.Sub(t0), int64(len(load))))

	// decode+pool traced per call: its extra time over the untraced
	// passes is the cost of the spans themselves.
	rung = sb.open("rung.decode_pool_traced", -1)
	traced, err := b.decodePoolPass(newPool, warm, load, sb, rung)
	if err != nil {
		return err
	}
	sb.close(rung)
	b.set("trace.overhead_frac", "ratio", float64(traced-plain)/float64(plain))
	runtime.GC()

	// loopback: a fresh server, one connection, closed loop.
	rung = sb.open("rung.loopback", -1)
	d, err := b.loopbackPass(spec, warm, load)
	if err != nil {
		return err
	}
	sb.close(rung)
	b.set("ladder.loopback_ns_per_sample", "ns", perSample(d, n))
	return nil
}

// coreKeyMajor feeds each key's warm frame (untimed), then its load
// frames back to back, to a fresh detector, one span per FeedAll call:
// the kernel's cost on these inputs with the detector's state in cache.
// It returns the summed span time, every key's final Stat and the lock
// statistics of the load samples.
func coreKeyMajor(sb *spanBuf, parent int64, newDet func() dpd.Detector, warm []ladderFrame, perKey [][]*ladderFrame) (time.Duration, []dpd.Stat, lockCounter) {
	want := make([]dpd.Stat, len(perKey))
	var sum, lc lockCounter
	var res []dpd.Result
	var spent time.Duration
	for _, w := range warm {
		det := newDet()
		res = det.FeedAll(w.samples, res)
		lc.reset()
		for _, f := range perKey[w.key] {
			t0 := time.Now()
			res = det.FeedAll(f.samples, res)
			t1 := time.Now()
			sb.add("core.Detector.FeedAll", parent, t0, t1)
			spent += t1.Sub(t0)
			for _, r := range res {
				lc.observe(r)
			}
		}
		want[w.key] = det.Snapshot()
		sum.locked, sum.total, sum.changes = sum.locked+lc.locked, sum.total+lc.total, sum.changes+lc.changes
	}
	return spent, want, sum
}

// ladderReps is how many times each untraced rung runs.
const ladderReps = 3

// corePass feeds warm (untimed) and load (timed) to one fresh detector
// per key, indexed directly by key.
func corePass(newDet func() dpd.Detector, streams int, warm, load []ladderFrame) time.Duration {
	dets := make([]dpd.Detector, streams)
	var res []dpd.Result
	for _, f := range warm {
		dets[f.key] = newDet()
		res = dets[f.key].FeedAll(f.samples, res)
	}
	t0 := time.Now()
	for _, f := range load {
		res = dets[f.key].FeedAll(f.samples, res)
	}
	return time.Since(t0)
}

// poolPass feeds warm (untimed) and load (timed) into a fresh pool, with
// a span per FeedBatch when sb is set and a concurrent Stat reader when
// stat is set, then runs after on the fed pool.
func (b *bench) poolPass(newPool func() (*dpd.Pool, error), warm, load []ladderFrame, sb *spanBuf, stat *statReader, parent int64, after func(*dpd.Pool) error) (time.Duration, error) {
	p, err := newPool()
	if err != nil {
		return 0, err
	}
	defer p.Close()
	for _, f := range warm {
		p.FeedBatch(f.keyed)
	}
	stop := stat.start(p, parent)
	t0 := time.Now()
	for _, f := range load {
		s := time.Now()
		p.FeedBatch(f.keyed)
		sb.add("pool.FeedBatch", parent, s, time.Now())
	}
	d := time.Since(t0)
	stop()
	if after != nil {
		return d, after(p)
	}
	return d, nil
}

// poolMetrics reads the traced pass's FeedBatch spans and the fed pool: shard balance, stream count, the
// standalone-detector differential on every stream, and checkpoints.
func (b *bench) poolMetrics(spec *serveSpec, p *dpd.Pool, want []dpd.Stat, sb *spanBuf, parent int64) error {
	fb := b.tr.durations("pool.FeedBatch")
	b.set("pool.feedbatch_us_p50", "us", us(pctNs(fb, 0.50)))
	b.set("pool.feedbatch_us_p99", "us", us(pctNs(fb, 0.99)))
	shards := p.ShardSamples(nil)
	var sum, top uint64
	for _, x := range shards {
		sum += x
		top = max(top, x)
	}
	b.set("pool.shard_skew", "ratio", float64(top)*float64(len(shards))/float64(sum))
	b.set("pool.streams", "count", float64(p.Len()))
	for key, w := range want {
		got, ok := p.Stat(uint64(key))
		switch {
		case !ok:
			b.fail("pool rung: stream %d missing", key)
		case got.Stat != w:
			b.fail("pool rung: stream %d Stat %+v, standalone detector %+v", key, got.Stat, w)
		default:
			b.ok(1)
		}
	}
	var times []float64
	var cw countWriter
	for i := 0; i < 3; i++ {
		cw = 0
		t0 := time.Now()
		if err := p.Checkpoint(&cw); err != nil {
			return err
		}
		t1 := time.Now()
		sb.add("pool.Checkpoint", parent, t0, t1)
		times = append(times, ms(float64(t1.Sub(t0).Nanoseconds())))
	}
	b.set("pool.checkpoint_ms", "ms", median(times))
	b.set("pool.checkpoint_bytes", "bytes", float64(cw))
	return nil
}

type countWriter int64

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}

// statReader calls Pool.Stat open-loop at a fixed rate, with keys drawn
// like the queries', while a pass feeds the pool.
type statReader struct {
	rate float64
	z    keyPicker
	sb   *spanBuf
}

func (r *statReader) start(p *dpd.Pool, parent int64) (stop func()) {
	if r == nil {
		return func() {}
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		for i := int64(1); ; i++ {
			key := r.z.Next()
			t0 := time.Now()
			p.Stat(key)
			r.sb.add("pool.Stat", parent, t0, time.Now())
			select {
			case <-done:
				return
			default:
			}
			sleepUntil(start.Add(time.Duration(float64(i) / r.rate * 1e9)))
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// decodePoolPass decodes each frame's payload and feeds the decoded
// samples to a fresh pool, as a server connection does.
func (b *bench) decodePoolPass(newPool func() (*dpd.Pool, error), warm, load []ladderFrame, sb *spanBuf, parent int64) (time.Duration, error) {
	p, err := newPool()
	if err != nil {
		return 0, err
	}
	defer p.Close()
	var fr server.Frame
	for _, f := range warm {
		if err := server.DecodeFrame(f.payload, &fr); err != nil {
			return 0, err
		}
		p.FeedBatch(fr.Samples)
	}
	t0 := time.Now()
	for _, f := range load {
		s := time.Now()
		if err := server.DecodeFrame(f.payload, &fr); err != nil {
			return 0, err
		}
		m := time.Now()
		p.FeedBatch(fr.Samples)
		e := time.Now()
		sb.add("server.DecodeFrame", parent, s, m)
		sb.add("pool.FeedBatch/decoded", parent, m, e)
	}
	return time.Since(t0), nil
}

// loopbackPass sends the frames to a fresh server over one connection
// as fast as the client's window allows, and checks the server applied
// every sample.
func (b *bench) loopbackPass(spec *serveSpec, warm, load []ladderFrame) (time.Duration, error) {
	args := append([]string(nil), spec.args...)
	if spec.checkpoint {
		dir, err := b.freshDir("ckpt-")
		if err != nil {
			return 0, err
		}
		args = append(args, "-checkpoint-dir", dir, "-checkpoint-every", checkpointEvery.String(), "-checkpoint-keep", "1")
	}
	srv, err := b.startServer(args)
	if err != nil {
		return 0, err
	}
	defer b.forget(srv)
	cl, err := client.Dial(client.Config{Addr: srv.ingest, Seed: b.opt.seed})
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	vals := make([]int64, spec.frame)
	send := func(frames []ladderFrame) error {
		for _, f := range frames {
			vals = vals[:len(f.samples)]
			for i, s := range f.samples {
				vals[i] = s.Value
			}
			if err := cl.SendEvents(f.key, vals); err != nil {
				return err
			}
		}
		return cl.Barrier()
	}
	if err := send(warm); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := send(load); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	var ctr serverCounters
	if err := getJSON(httpClient(), "http://"+srv.http+"/metrics", &ctr); err != nil {
		return 0, err
	}
	if want := uint64(sampleCount(warm) + sampleCount(load)); ctr.SamplesTotal != want {
		b.fail("loopback rung: server applied %d samples, sent %d", ctr.SamplesTotal, want)
	} else {
		b.ok(1)
	}
	return d, nil
}
