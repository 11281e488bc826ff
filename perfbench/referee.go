package main

import (
	"fmt"
	"time"

	"dpd"
)

// referee checks a serving run's outputs once every frame has been
// acknowledged: the server's own failure counters, exactly-once
// delivery on every stream, and — the repository's invariant — that a
// seeded subset of streams reads exactly like a standalone detector fed
// the same samples.
func (b *bench) referee(spec *serveSpec, s *session) error {
	base := "http://" + s.srv.http
	var ctr serverCounters
	if err := getJSON(s.hc, base+"/metrics", &ctr); err != nil {
		return fmt.Errorf("referee: %w", err)
	}
	b.failN(int64(ctr.OverloadSheds), "overload sheds")
	b.failN(int64(ctr.Disconnects.ProtocolError+ctr.Disconnects.Overload+ctr.Disconnects.Panic), "server-side abnormal disconnects")
	b.failN(int64(ctr.CheckpointErrors), "checkpoint errors")
	if spec.checkpoint && time.Since(s.opened) > 2*checkpointEvery && ctr.CheckpointsTotal == 0 {
		b.fail("the checkpoint loop wrote no checkpoint")
	}

	var total uint64
	for _, n := range s.sent {
		total += n
	}
	if ctr.SamplesTotal != total {
		b.fail("server applied %d samples, generator sent %d", ctr.SamplesTotal, total)
	}

	var st streamStat
	for key, want := range s.sent {
		if err := getJSON(s.hc, fmt.Sprintf("%s/streams/%d", base, key), &st); err != nil {
			b.fail("stream %d: %v", key, err)
			continue
		}
		if st.Samples != want {
			b.fail("stream %d: %d samples applied, %d sent", key, st.Samples, want)
			continue
		}
		b.ok(1)
	}

	g := newRNG(b.opt.seed, 99)
	for i := 0; i < diffStreams; i++ {
		key := uint64(g.intn(spec.streams))
		if err := getJSON(s.hc, fmt.Sprintf("%s/streams/%d", base, key), &st); err != nil {
			b.fail("stream %d: %v", key, err)
			continue
		}
		want, err := standalone(spec, s.v, key, s.sent[key])
		if err != nil {
			return err
		}
		if st.Stat != want {
			b.fail("stream %d: server Stat %+v, standalone detector %+v", key, st.Stat, want)
			continue
		}
		b.ok(1)
	}
	return nil
}

// standalone feeds a fresh detector of the workload's engine the first
// n samples of stream key and returns its Stat.
func standalone(spec *serveSpec, v *values, key, n uint64) (dpd.Stat, error) {
	det, err := dpd.New(spec.opts...)
	if err != nil {
		return dpd.Stat{}, err
	}
	buf := make([]int64, spec.frame)
	for i := uint64(0); i < n; i += uint64(len(buf)) {
		chunk := buf[:min(uint64(len(buf)), n-i)]
		v.fill(key, i, chunk)
		for _, x := range chunk {
			det.Feed(dpd.Sample{Value: x})
		}
	}
	return det.Snapshot(), nil
}
