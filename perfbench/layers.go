package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rfid"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/uop"
)

// The layer pass times direct calls to each layer's public functions on
// lap 0's tuples, in this process, with nothing else running. Every
// figure is the median over layerReps passes. Passes that produce alerts
// check them against the reference, like the end-to-end runs.

const layerReps = 3

// medianOf runs f reps times and returns the median of its results.
func medianOf(reps int, f func() (float64, error)) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		xs = append(xs, v)
	}
	return median(xs), nil
}

func nsPer(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }

// lapFrames encodes lap 0 as the bwire byte stream the generator sends.
func lapFrames(in *Input) []byte {
	frames, _ := in.appendFrames(append([]byte(nil), in.Schema.Frame()...), nil, 0, len(in.Wire))
	return frames
}

// decodeLap decodes a bwire stream into engine tuples, returning the time
// spent in BwDecoder.DecodeTuples and BwTuple.UTuple alone.
func decodeLap(frames []byte) ([]*core.UTuple, time.Duration, error) {
	wr := server.NewWireReader(bytes.NewReader(frames), 1<<20)
	dec := server.NewBwDecoder()
	var us []*core.UTuple
	var spent time.Duration
	for {
		line, fr, err := wr.Next()
		if err == io.EOF {
			return us, spent, nil
		}
		if err != nil {
			return nil, 0, err
		}
		if line != nil {
			return nil, 0, errors.New("unexpected JSON line in the bwire stream")
		}
		switch fr.Kind {
		case server.BwSchemaFrame:
			if _, err := dec.AddSchema(fr.Payload); err != nil {
				return nil, 0, err
			}
		case server.BwTuples:
			s := time.Now()
			bts, err := dec.DecodeTuples(fr.Payload)
			if err != nil {
				return nil, 0, err
			}
			for i := range bts {
				u, err := bts[i].UTuple()
				if err != nil {
					return nil, 0, err
				}
				us = append(us, u)
			}
			spent += time.Since(s)
		}
	}
}

// alertLines encodes result tuples as alert lines and the time it took.
func alertLines(ts []*stream.Tuple) ([][]byte, time.Duration, error) {
	lines := make([][]byte, 0, len(ts))
	s := time.Now()
	for _, t := range ts {
		m, err := server.AlertMsg(t)
		if err != nil {
			return nil, 0, err
		}
		line, err := server.EncodeLine(m)
		if err != nil {
			return nil, 0, err
		}
		lines = append(lines, line)
	}
	return lines, time.Since(s), nil
}

// checkLap compares one lap's alert lines with the reference.
func checkLap(in *Input, what string, lines [][]byte) error {
	if err := sameShifted(in.Ref.Lines, lines, 0); err != nil {
		return fmt.Errorf("%s: alerts differ from the reference: %w", what, err)
	}
	return nil
}

// member is the plan's probabilistic GROUP BY assignment, called exactly
// as uop's membership function calls it: location rescaled to grid cells,
// then rfid.AreaMasses.
func member(u *core.UTuple, areaFt, minMass float64) []rfid.AreaMass {
	x := dist.Scale(u.Attr("x"), 1/areaFt)
	y := dist.Scale(u.Attr("y"), 1/areaFt)
	return rfid.AreaMasses(x, y, minMass)
}

// Defaults the Q1/Q3 configs leave to uop (MinAreaMass 0.01).
const minAreaMass = 0.01

// workloadAgg builds the workload's aggregate exactly as its query does.
func workloadAgg(w Workload) core.UAgg {
	if w.Query == "quantile" {
		cfg := w.q3Config(0)
		return core.NewQuantileAgg("weight", cfg.Level, cfg.Quantile)
	}
	cfg := w.q1Config(0)
	return core.NewSumAgg("weight", cfg.Strategy, cfg.Agg)
}

// layerPass measures every per-layer metric that comes from direct calls.
func layerPass(w Workload, in *Input) (map[string]float64, error) {
	out := map[string]float64{}
	frames := lapFrames(in)
	us, _, err := decodeLap(frames)
	if err != nil {
		return nil, err
	}
	n := len(us)

	// Wire decode.
	out["server.decode_ns_per_tuple"], err = medianOf(layerReps, func() (float64, error) {
		_, d, err := decodeLap(frames)
		return nsPer(d, n), err
	})
	if err != nil {
		return nil, err
	}

	// Membership.
	areaFt := server.DefaultQ1Config().AreaFt
	groups := 0
	for _, u := range us {
		groups += len(member(u, areaFt, minAreaMass))
	}
	out["core.groups_per_tuple"] = ratio(float64(groups), float64(n))
	out["core.membership_ns_per_tuple"], _ = medianOf(layerReps, func() (float64, error) {
		s := time.Now()
		for _, u := range us {
			member(u, areaFt, minAreaMass)
		}
		return nsPer(time.Since(s), n), nil
	})

	// Accumulator methods.
	acc, err := accPass(w, in, us, areaFt)
	if err != nil {
		return nil, err
	}
	for k, v := range acc {
		out[k] = v
	}

	// Reference plan: alert encoding and the HAVING selectivity.
	ref := w.ReferencePlan()
	for _, u := range us {
		ref.Push("locations", u)
	}
	results := ref.Close()
	lines, _, err := alertLines(results)
	if err != nil {
		return nil, err
	}
	if err := checkLap(in, "reference plan", lines); err != nil {
		return nil, err
	}
	var havingIn, havingOut uint64
	for _, b := range ref.Graph.Boxes() {
		if strings.HasPrefix(b.Op.Name(), "having(") {
			havingIn += b.Stats().In
			havingOut += b.Stats().Out
		}
	}
	out["core.having_out_per_in"] = ratio(float64(havingOut), float64(havingIn))
	out["server.alert_encode_ns_per_alert"], err = medianOf(layerReps, func() (float64, error) {
		_, d, err := alertLines(results)
		return nsPer(d, len(results)), err
	})
	if err != nil {
		return nil, err
	}

	// Queue admission against the plan the SUT's ingest queue feeds.
	feed, newPlan, err := ingestFeed(w, us)
	if err != nil {
		return nil, err
	}
	out["server.queue_wait_ns_per_tuple"], err = medianOf(layerReps, func() (float64, error) {
		return queuePass(in, feed, newPlan, !w.Cluster)
	})
	if err != nil {
		return nil, err
	}

	// Checkpoint and restore at a mid-window cut.
	ck, err := ckptPass(w, in, feed, newPlan)
	if err != nil {
		return nil, err
	}
	for k, v := range ck {
		out[k] = v
	}

	// The cluster split of the workload's query.
	cl, err := clusterPass(w, in, us)
	if err != nil {
		return nil, err
	}
	for k, v := range cl {
		out[k] = v
	}
	return out, nil
}

// accPass replays lap 0 through the workload's aggregate the way the
// incremental window path drives it: per group one accumulator; at each
// window step boundary, Remove the contributions that left the window,
// then Result for every live group; then Add the arriving tuple's
// contributions. Prepare is timed over all contributions in one loop. Each
// operation kind is timed over whole runs of calls, not per call.
func accPass(w Workload, in *Input, us []*core.UTuple, areaFt float64) (map[string]float64, error) {
	agg := workloadAgg(w)
	step, rng := w.step(), int64(w.Spec().Duration)
	type contrib struct {
		u     *core.UTuple
		p     float64
		group string
	}
	var cs []contrib
	var ts []int64
	for _, u := range us {
		for _, m := range member(u, areaFt, minAreaMass) {
			if p := m.P * u.Exist; p > 0 {
				cs = append(cs, contrib{u, p, m.Area})
				ts = append(ts, int64(u.TS))
			}
		}
	}
	if len(cs) == 0 {
		return nil, errors.New("no aggregate contributions in the lap")
	}

	type live struct {
		group string
		h     uint64
		t     int64
	}
	one := func() (prep, add, rem, res time.Duration, nAdd, nRem, nRes int) {
		s := time.Now()
		for _, c := range cs {
			agg.Prepare(c.u, c.p)
		}
		prep = time.Since(s)

		accs := map[string]core.Acc{}
		var resident []live
		var rows []core.AggOut
		nextEnd := ts[0] + step
		closeTo := func(limit int64) {
			for limit >= nextEnd {
				s := time.Now()
				keep := resident[:0]
				for _, l := range resident {
					if l.t < nextEnd-rng {
						accs[l.group].Remove(l.h)
						nRem++
					} else {
						keep = append(keep, l)
					}
				}
				resident = keep
				rem += time.Since(s)
				s = time.Now()
				for _, a := range accs {
					if a.Len() > 0 {
						rows = a.Result(rows)
						nRes++
					}
				}
				res += time.Since(s)
				nextEnd += step
			}
		}
		for i := 0; i < len(cs); {
			closeTo(ts[i])
			s := time.Now()
			for ; i < len(cs) && ts[i] < nextEnd; i++ {
				a := accs[cs[i].group]
				if a == nil {
					a = agg.NewAcc()
					accs[cs[i].group] = a
				}
				resident = append(resident, live{cs[i].group, a.Add(cs[i].u, cs[i].p), ts[i]})
				nAdd++
			}
			add += time.Since(s)
		}
		closeTo(ts[len(ts)-1] + rng)
		return
	}
	var prep, add, rem, res []float64
	for r := 0; r < layerReps; r++ {
		p, a, m, z, nAdd, nRem, nRes := one()
		prep = append(prep, nsPer(p, len(cs)))
		add = append(add, nsPer(a, nAdd))
		rem = append(rem, nsPer(m, nRem))
		res = append(res, nsPer(z, nRes))
	}
	return map[string]float64{
		"core.acc_prepare_ns":          median(prep),
		"core.acc_add_ns":              median(add),
		"core.acc_remove_ns":           median(rem),
		"core.acc_result_ns_per_group": median(res),
	}, nil
}

// ingestFeed is the carrier-tuple stream the SUT's ingest queue carries and
// the plan factory behind it: for a single server, the client's tuples into
// streamd's plan; for a cluster, worker 0's routed tuples and close
// punctuations into the worker plan.
func ingestFeed(w Workload, us []*core.UTuple) ([]*stream.Tuple, func() *uop.Compiled, error) {
	if !w.Cluster {
		feed := make([]*stream.Tuple, len(us))
		for i, u := range us {
			feed[i] = core.Wrap(u)
		}
		return feed, w.ServerPlan(), nil
	}
	plan, err := w.ClusterPlan()
	if err != nil {
		return nil, nil, err
	}
	return routeLap(plan, us)[0], plan.CompileWorker, nil
}

// queuePass runs a fresh plan live behind a server ingest queue and feeds
// it in 32-tuple PutBatch calls as fast as the queue admits them,
// returning the time PutBatch blocked per tuple. With check set the plan's
// alerts must match the reference.
func queuePass(in *Input, feed []*stream.Tuple, newPlan func() *uop.Compiled, check bool) (float64, error) {
	plan := newPlan()
	var results []*stream.Tuple
	plan.OnResult(func(t *stream.Tuple) { results = append(results, t) })
	box, port, ok := plan.LookupSource("locations")
	if !ok {
		return 0, errors.New("plan has no locations source")
	}
	q := server.NewQueue(QueueCap, server.Block)
	runErr := make(chan error, 1)
	go func() {
		runErr <- plan.RunLiveOpts(context.Background(), q, stream.LiveOptions{Buffer: Buffer, FlushEvery: stream.DefaultFlushEvery})
	}()
	batch := make([]stream.SourceTuple, 0, server.BwBatch)
	var blocked time.Duration
	for i := 0; i < len(feed); i += server.BwBatch {
		batch = batch[:0]
		for _, t := range feed[i:min(i+server.BwBatch, len(feed))] {
			batch = append(batch, stream.SourceTuple{Box: box, Port: port, T: t})
		}
		s := time.Now()
		if _, err := q.PutBatch(context.Background(), batch); err != nil {
			q.Close()
			<-runErr
			return 0, err
		}
		blocked += time.Since(s)
	}
	q.Close()
	if err := <-runErr; err != nil {
		return 0, err
	}
	if check {
		lines, _, err := alertLines(results)
		if err != nil {
			return 0, err
		}
		if err := checkLap(in, "queue pass", lines); err != nil {
			return 0, err
		}
	}
	return nsPer(blocked, len(feed)), nil
}

// ckptPass pushes the feed into a fresh plan up to the middle of the lap's
// middle window, then times Compiled.Checkpoint and RestoreFrom into fresh
// plans.
func ckptPass(w Workload, in *Input, feed []*stream.Tuple, newPlan func() *uop.Compiled) (map[string]float64, error) {
	step := w.step()
	first, last := in.Msgs[0].T, in.Msgs[len(in.Msgs)-1].T
	mid := first + (last-first)/2/step*step + step/2
	plan := newPlan()
	for _, t := range feed {
		if !stream.IsControl(t) && int64(t.TS) >= mid {
			break
		}
		plan.PushTuple("locations", t)
	}
	var data []byte
	ckMS, err := medianOf(layerReps, func() (float64, error) {
		s := time.Now()
		var err error
		data, err = plan.Checkpoint()
		return ms(time.Since(s)), err
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	rsMS, err := medianOf(layerReps, func() (float64, error) {
		p := newPlan()
		s := time.Now()
		err := p.RestoreFrom(data)
		return ms(time.Since(s)), err
	})
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	return map[string]float64{
		"uop.ckpt_bytes": float64(len(data)),
		"uop.ckpt_ms":    ckMS,
		"uop.restore_ms": rsMS,
	}, nil
}

// routeLap runs lap 0 through a partition box clocked like the router's
// (keys hashed over Workers slots) and returns each slot's stream as a
// worker receives it: routed tuples carrying their arrival sequence, and
// every window-close punctuation.
func routeLap(plan *uop.ClusterPlan, us []*core.UTuple) [][]*stream.Tuple {
	spec := plan.Window
	part := stream.NewPartition("route", Workers, stream.PartitionSpec{
		Clock: &spec,
		Route: func(t *stream.Tuple) (int, bool) {
			u := core.Unwrap(t)
			if !u.HasKey(plan.Key) {
				return 0, false
			}
			return stream.ShardOfKey(u.Key(plan.Key), Workers), true
		},
	})
	ports := make([][]*stream.Tuple, Workers)
	emit := func(out *stream.Tuple) {
		if end, ok := stream.WindowCloseOf(out); ok {
			seq, _ := stream.CloseSeq(out)
			for i := range ports {
				ports[i] = append(ports[i], stream.NewWindowClose(end, seq))
			}
			return
		}
		slot, _ := out.RouteShard()
		t := core.Wrap(core.Unwrap(out))
		t.Seq = out.Seq
		ports[slot] = append(ports[slot], t)
	}
	for _, u := range us {
		part.Process(0, core.Wrap(u), emit)
	}
	part.Flush(emit)
	return ports
}

// clusterPass times the worker and head halves of the workload's cluster
// split on lap 0: worker plans fed their routed streams, each partial
// encoded as the worker ships it (EncodeWireTuple + EncodeBwPart), and the
// head plan fed the decoded partials window by window, as the router
// releases them. The head's alerts must match the reference.
func clusterPass(w Workload, in *Input, us []*core.UTuple) (map[string]float64, error) {
	plan, err := w.ClusterPlan()
	if err != nil {
		return nil, err
	}
	ports := routeLap(plan, us)
	var workerNs, encNs, headNs []float64
	for r := 0; r < layerReps; r++ {
		parts := make([][]*stream.Tuple, Workers)
		var workerT, encT time.Duration
		nParts := 0
		for i, feed := range ports {
			wp := plan.CompileWorker()
			s := time.Now()
			for _, t := range feed {
				wp.PushTuple(plan.Source, t)
			}
			outs := append(wp.Results(), wp.Close()...)
			workerT += time.Since(s)
			blobs := make([][]byte, len(outs))
			s = time.Now()
			for j, t := range outs {
				data, err := stream.EncodeWireTuple(t)
				if err != nil {
					return nil, err
				}
				server.EncodeBwPart(i, data)
				blobs[j] = data
			}
			encT += time.Since(s)
			for _, data := range blobs {
				dt, err := stream.DecodeWireTuple(data)
				if err != nil {
					return nil, err
				}
				parts[i] = append(parts[i], dt)
			}
			nParts += len(outs)
		}
		head := plan.CompileHead(Workers)
		var results []*stream.Tuple
		head.OnResult(func(t *stream.Tuple) { results = append(results, t) })
		var headT time.Duration
		pos := make([]int, Workers)
		for more := true; more; {
			more = false
			for i := range parts {
				s := time.Now()
				for pos[i] < len(parts[i]) {
					t := parts[i][pos[i]]
					pos[i]++
					head.PushTuple(uop.ClusterPort(i), t)
					if stream.IsControl(t) {
						break
					}
				}
				headT += time.Since(s)
				more = more || pos[i] < len(parts[i])
			}
		}
		s := time.Now()
		head.Close()
		headT += time.Since(s)
		lines, _, err := alertLines(results)
		if err != nil {
			return nil, err
		}
		if err := checkLap(in, "cluster pass", lines); err != nil {
			return nil, err
		}
		workerNs = append(workerNs, nsPer(workerT, len(us)))
		encNs = append(encNs, nsPer(encT, nParts))
		headNs = append(headNs, nsPer(headT, nParts))
	}
	return map[string]float64{
		"uop.cluster_worker_ns_per_tuple": median(workerNs),
		"server.part_encode_ns_per_part":  median(encNs),
		"uop.head_merge_ns_per_part":      median(headNs),
	}, nil
}
