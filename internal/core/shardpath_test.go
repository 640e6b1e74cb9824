package core

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/dist"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/snap"
	"repro/internal/stream"
)

// The tests in this file pin the shard→merge contribution path: its
// per-contribution allocation budget, its compatibility with blobs written
// before the sum's moments-only contribution had its own codec tag, and the
// robustness of the codecs it carries.

// q1TestMember is Q1's probabilistic GROUP BY over 1-ft floor cells, as
// uop's areaMember builds it.
func q1TestMember(u *UTuple) []GroupMass {
	var buf [16]rfid.AreaMass
	ms := rfid.AppendAreaMasses(buf[:0], u.Attr("x"), u.Attr("y"), 1, 0.01)
	out := make([]GroupMass, len(ms))
	for i, m := range ms {
		out[i] = GroupMass{Group: m.Area, P: m.P}
	}
	return out
}

// q1TestCfg is a Q1-shaped windowed sum: dedup by tag, area membership,
// CF(approx) gated sum.
func q1TestCfg(spec stream.WindowSpec) WindowAggConfig {
	return WindowAggConfig{
		Window:   spec,
		DedupKey: "tag",
		Member:   q1TestMember,
		Agg:      NewSumAgg("weight", CFApprox, AggOptions{}),
	}
}

// q1TestStream builds n Q1-shaped location tuples spread over span ms:
// Normal x/y posteriors in feet, a point weight, a tag (tags repeat, so
// dedup replaces), existence below 1 on every fourth tuple, and arrival
// sequence stamps.
func q1TestStream(n int, span stream.Time) []*stream.Tuple {
	g := rng.New(5)
	ts := make([]*stream.Tuple, n)
	for i := range ts {
		u := NewUTuple(stream.Time(int64(i)*int64(span)/int64(n)), []string{"x", "y", "weight"}, []dist.Dist{
			dist.NewNormal(g.Float64()*12, 0.2+g.Float64()*0.6),
			dist.NewNormal(g.Float64()*12, 0.2+g.Float64()*0.6),
			dist.PointMass{V: 5 + g.Float64()*45},
		})
		u.SetKey("tag", int64(i%(n*3/4+1)))
		if i%4 == 0 {
			u.Exist = 0.9
		}
		t := Wrap(u)
		t.Seq = uint64(i + 1)
		ts[i] = t
	}
	return ts
}

// shardRig drives p partial instances and their merge by hand, the way a
// sharded plan wires them: tuples route by tag, each close reaches every
// shard, and each shard's output reaches the merge on its own port.
type shardRig struct {
	parts []stream.Operator
	emits []stream.Emit
	outs  [][]*stream.Tuple
	merge stream.Operator
	sink  stream.Emit
	rows  []*stream.Tuple
	seq   uint64
}

func newShardRig(cfg WindowAggConfig, p int) *shardRig {
	r := &shardRig{merge: NewWindowAggMergeOp("merge", cfg, p), outs: make([][]*stream.Tuple, p)}
	for i := 0; i < p; i++ {
		r.parts = append(r.parts, NewWindowAggPartialOp(fmt.Sprintf("s%d", i), cfg))
		r.emits = append(r.emits, func(t *stream.Tuple) { r.outs[i] = append(r.outs[i], t) })
	}
	r.sink = func(t *stream.Tuple) { r.rows = append(r.rows, t) }
	return r
}

func (r *shardRig) push(t *stream.Tuple) {
	i := stream.ShardOfKey(Unwrap(t).Key("tag"), len(r.parts))
	r.parts[i].Process(0, t, r.emits[i])
	r.seq = t.Seq
}

// close closes the window ending at end on every shard, then hands each
// shard's output to the merge, port by port.
func (r *shardRig) close(end stream.Time) {
	r.seq++
	for i, p := range r.parts {
		p.Process(0, stream.NewWindowClose(end, r.seq), r.emits[i])
	}
	for i := range r.outs {
		for _, t := range r.outs[i] {
			r.merge.Process(i, t, r.sink)
		}
		clear(r.outs[i])
		r.outs[i] = r.outs[i][:0]
	}
}

// run pushes a stream through the rig, closing a window every step ms.
func (r *shardRig) run(ts []*stream.Tuple, step stream.Time) {
	next := step
	for _, t := range ts {
		for t.TS >= next {
			r.close(next)
			next += step
		}
		r.push(t)
	}
	r.close(next)
}

// TestShardPathAllocsPerContribution bounds the allocations of one
// shard-partial close plus merge of a Q1 window by its contribution count:
// membership, Prepare, grouping and the merge must not allocate per
// contribution beyond the prepared value itself, its cell name, and the
// membership result.
func TestShardPathAllocsPerContribution(t *testing.T) {
	window := q1TestStream(1500, 5*stream.Second)
	cfg := q1TestCfg(stream.WindowSpec{Duration: 5 * stream.Second})
	rig := newShardRig(cfg, 2)
	end := stream.Time(0)
	once := func() {
		for _, tp := range window {
			rig.push(tp)
		}
		end += 5 * stream.Second
		rig.close(end)
		rig.rows = rig.rows[:0]
	}
	once()
	gps := newWindowPrep(cfg).close(window, end)
	contribs := 0
	for _, gp := range gps {
		contribs += len(gp.contribs)
	}
	if contribs < 2*len(window)/3 {
		t.Fatalf("window yields only %d contributions from %d tuples", contribs, len(window))
	}
	allocs := testing.AllocsPerRun(20, once)
	perContrib := allocs / float64(contribs)
	t.Logf("%.0f allocs per close+merge: %d tuples, %d contributions, %d groups → %.2f per contribution",
		allocs, len(window), contribs, len(gps), perContrib)
	// Per contribution: the boxed moments-only Dist and the cell-name
	// string; per tuple, the membership slice; per group, the partial
	// tuple, the fold and the output row. The mixture-building path this
	// replaced took 7.4 on this window.
	const budget = 3.0
	if perContrib > budget {
		t.Errorf("%.2f allocs per contribution, budget %.1f", perContrib, budget)
	}
}

// TestWindowPrepMemoMatchesFresh pins the sliding-window memo: a tuple's
// contributions copied from the previous close equal a fresh membership +
// Prepare pass over the same window, value for value.
func TestWindowPrepMemoMatchesFresh(t *testing.T) {
	ts := q1TestStream(800, 8*stream.Second)
	cfg := q1TestCfg(stream.WindowSpec{Duration: 5 * stream.Second, Slide: stream.Second})
	memo := newWindowPrep(cfg)
	for end := stream.Second; end <= 9*stream.Second; end += stream.Second {
		var window []*stream.Tuple
		for _, tp := range ts {
			if tp.TS >= end-5*stream.Second && tp.TS < end {
				window = append(window, tp)
			}
		}
		got := memo.close(window, end)
		want := newWindowPrep(cfg).close(window, end)
		if len(got) != len(want) {
			t.Fatalf("end %d: %d groups, fresh pass %d", end, len(got), len(want))
		}
		for g := range want {
			a, b := got[g], want[g]
			if a.group != b.group || len(a.contribs) != len(b.contribs) {
				t.Fatalf("end %d group %d: %s/%d, fresh %s/%d", end, g, a.group, len(a.contribs), b.group, len(b.contribs))
			}
			for i := range b.contribs {
				x, y := a.contribs[i], b.contribs[i]
				if x.Seq != y.Seq || x.U != y.U || x.P != y.P || x.D.Mean() != y.D.Mean() || x.D.Variance() != y.D.Variance() {
					t.Fatalf("end %d group %s contribution %d differs from a fresh pass", end, b.group, i)
				}
			}
		}
	}
}

// TestMergeRunsIsStableSeqSort: merging Seq-ascending runs equals a stable
// sort of their concatenation, ties going to the earlier run.
func TestMergeRunsIsStableSeqSort(t *testing.T) {
	g := rng.New(9)
	for trial := 0; trial < 200; trial++ {
		var all []PartialContrib
		var runs [][]PartialContrib
		for r := 0; r < 1+g.Intn(11); r++ {
			var run []PartialContrib
			seq := uint64(g.Intn(5))
			for k := g.Intn(6); k > 0; k-- {
				seq += uint64(g.Intn(3)) // repeats allowed
				run = append(run, PartialContrib{Seq: seq, P: float64(len(all))})
				all = append(all, run[len(run)-1])
			}
			runs = appendRuns(runs, run)
		}
		got := mergeRuns(make([]PartialContrib, len(all)), runs)
		want := append([]PartialContrib(nil), all...)
		for i := 1; i < len(want); i++ { // insertion sort: stable by construction
			for j := i; j > 0 && want[j].Seq < want[j-1].Seq; j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		for i := range want {
			if got[i].Seq != want[i].Seq || got[i].P != want[i].P {
				t.Fatalf("trial %d: merged order differs from a stable sort at %d", trial, i)
			}
		}
	}
}

// BenchmarkWindowAggShardPath times the shard→merge path alone on a
// pre-built Q1 stream (30 s at 400 tuples/s, two shards): dedup,
// membership, Prepare, grouping, the merge and the fold, with no ingest,
// queues or goroutines. Run with -benchmem.
func BenchmarkWindowAggShardPath(b *testing.B) {
	ts := q1TestStream(12000, 30*stream.Second)
	for _, bc := range []struct {
		name string
		spec stream.WindowSpec
	}{
		{"tumbling", stream.WindowSpec{Duration: 5 * stream.Second}},
		{"slide=1s", stream.WindowSpec{Duration: 5 * stream.Second, Slide: stream.Second}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			step := bc.spec.Slide
			if step == 0 {
				step = bc.spec.Duration
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newShardRig(q1TestCfg(bc.spec), 2).run(ts, step)
			}
			b.ReportMetric(float64(len(ts)*b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// legacyFixtureRuns drives two shards of a small Q1-shaped sum by hand and
// returns each shard's output for window [0, 10): tuples route by tag
// parity and carry their global Seq. The fixtures in testdata were written
// by this function's shard-0 output under the retired tag-128 encoder:
// merge_snapshot_tag128.bin is a two-port merge snapshot after port 0's
// partials and close, group_partial_tag128.bin the first group partial.
func legacyFixtureRuns(agg UAgg) [2][]*stream.Tuple {
	cfg := WindowAggConfig{Window: stream.WindowSpec{Duration: 10}, DedupKey: "tag", Member: shardTestMember, Agg: agg}
	shards := [2]stream.Operator{NewWindowAggPartialOp("s0", cfg), NewWindowAggPartialOp("s1", cfg)}
	var outs [2][]*stream.Tuple
	for i := 0; i < 24; i++ {
		tag := int64(i % 6)
		t := shardTestTuple(stream.Time(i%10), tag, float64(5+(7*i)%30), 10+float64(tag))
		Unwrap(t).Exist = 0.9
		t.Seq = uint64(i + 1)
		s := tag % 2
		shards[s].Process(0, t, func(o *stream.Tuple) { outs[s] = append(outs[s], o) })
	}
	for s := range shards {
		shards[s].Process(0, stream.NewWindowClose(10, 25), func(o *stream.Tuple) { outs[s] = append(outs[s], o) })
	}
	return outs
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// momentsOnly renders result rows without lineage (restored tuples keep
// the IDs of the process that wrote the fixture).
func momentsOnly(ts []*stream.Tuple) string {
	out := ""
	for _, t := range ts {
		d := Unwrap(t).Attr("weight")
		out += fmt.Sprintf("%d|%s|%.17g|%.17g\n", t.TS, GroupOf(t), d.Mean(), d.Variance())
	}
	return out
}

// TestLegacyTag128BlobsDecode: a merge snapshot and a group partial written
// with the retired cached-moment tag (128) still decode, and finishing the
// restored merge emits exactly what a merge fed live partials emits.
func TestLegacyTag128BlobsDecode(t *testing.T) {
	agg := NewSumAgg("weight", CFApprox, AggOptions{})
	cfg := WindowAggConfig{Window: stream.WindowSpec{Duration: 10}, DedupKey: "tag", Member: shardTestMember, Agg: agg}
	runs := legacyFixtureRuns(agg)

	var want []*stream.Tuple
	live := NewWindowAggMergeOp("merge", cfg, 2)
	for port, run := range runs {
		for _, o := range run {
			live.Process(port, o, func(r *stream.Tuple) { want = append(want, r) })
		}
	}
	var got []*stream.Tuple
	restored := NewWindowAggMergeOp("merge", cfg, 2)
	if err := restored.(stream.Snapshotter).Restore(readFixture(t, "merge_snapshot_tag128.bin")); err != nil {
		t.Fatalf("restore tag-128 merge snapshot: %v", err)
	}
	for _, o := range runs[1] {
		restored.Process(1, o, func(r *stream.Tuple) { got = append(got, r) })
	}
	if len(want) == 0 || momentsOnly(got) != momentsOnly(want) {
		t.Errorf("restored merge emits\n%s\nlive merge\n%s", momentsOnly(got), momentsOnly(want))
	}

	r := snap.NewReader(readFixture(t, "group_partial_tag128.bin"))
	gp, err := decodeGroupPartial(r)
	if err == nil {
		err = r.Close()
	}
	if err != nil {
		t.Fatalf("decode tag-128 group partial: %v", err)
	}
	if len(gp.contribs) == 0 {
		t.Fatal("fixture partial has no contributions")
	}
	for _, c := range gp.contribs {
		ref := BernoulliGate(c.U.Attr("weight"), c.P)
		fresh := newGatedMoments(c.U.Attr("weight"), c.P)
		if c.D.Mean() != fresh.Mean() || c.D.Variance() != fresh.Variance() {
			t.Errorf("seq %d: decoded moments %.17g/%.17g, closed form %.17g/%.17g",
				c.Seq, c.D.Mean(), c.D.Variance(), fresh.Mean(), fresh.Variance())
		}
		for _, x := range []float64{-1, 0, 12.5, 1e3} {
			if c.D.CDF(x) != ref.CDF(x) {
				t.Errorf("seq %d: decoded CDF(%g) = %g, gate mixture %g", c.Seq, x, c.D.CDF(x), ref.CDF(x))
			}
		}
	}
}

// freshPartialBlob encodes a group partial from the current encoder.
func freshPartialBlob(t testing.TB) []byte {
	runs := legacyFixtureRuns(NewSumAgg("weight", CFApprox, AggOptions{}))
	w := &snap.Writer{}
	if err := encodeGroupPartial(w, runs[0][0].Get("__partial").(*groupPartial)); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

func FuzzDecodeGroupPartial(f *testing.F) {
	f.Add(readFixture(f, "group_partial_tag128.bin"))
	f.Add(freshPartialBlob(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		gp, err := decodeGroupPartial(snap.NewReader(data))
		if err != nil {
			return
		}
		w := &snap.Writer{}
		if err := encodeGroupPartial(w, gp); err != nil {
			t.Fatalf("re-encoding a decoded partial: %v", err)
		}
		if _, err := decodeGroupPartial(snap.NewReader(w.Bytes())); err != nil {
			t.Fatalf("re-encoded partial does not decode: %v", err)
		}
	})
}

func FuzzMergeRestore(f *testing.F) {
	agg := NewSumAgg("weight", CFApprox, AggOptions{})
	cfg := WindowAggConfig{Window: stream.WindowSpec{Duration: 10}, DedupKey: "tag", Member: shardTestMember, Agg: agg}
	f.Add(readFixture(f, "merge_snapshot_tag128.bin"))
	m := NewWindowAggMergeOp("merge", cfg, 2)
	for _, o := range legacyFixtureRuns(agg)[0] {
		m.Process(0, o, func(*stream.Tuple) {})
	}
	blob, err := m.(stream.Snapshotter).Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewWindowAggMergeOp("merge", cfg, 2).(*windowAggMerge)
		if err := m.Restore(data); err != nil {
			return
		}
		if _, err := m.Snapshot(); err != nil {
			t.Fatalf("snapshot of a restored merge: %v", err)
		}
	})
}

func FuzzSumContribCodec(f *testing.F) {
	for _, d := range []dist.Dist{
		newGatedMoments(dist.NewNormal(7, 1.5), 0.75),
		newGatedMoments(dist.NewGaussianMixture([]float64{0.4, 0.6}, []float64{0, 10}, []float64{1, 2}), 0.3),
	} {
		w := &snap.Writer{}
		if err := dist.Encode(w, d); err != nil {
			f.Fatal(err)
		}
		f.Add(w.Bytes())
	}
	// The retired tag-128 form: mean, variance, then the gate mixture.
	legacy := &snap.Writer{}
	legacy.U8(1) // dist codec version
	legacy.U8(distTagMomentV1)
	gate := BernoulliGate(dist.NewNormal(7, 1.5), 0.75)
	legacy.F64(gate.Mean())
	legacy.F64(gate.Variance())
	if err := dist.Encode(legacy, gate); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := snap.NewReader(data)
		d := dist.Decode(r)
		if r.Err() != nil {
			return
		}
		w := &snap.Writer{}
		if err := dist.Encode(w, d); err != nil {
			t.Fatalf("re-encoding a decoded %T: %v", d, err)
		}
	})
}
