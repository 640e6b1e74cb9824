package core

import (
	"fmt"

	"repro/internal/stream"
)

// This file makes the windowed uncertain aggregates data-parallel while
// keeping their output byte-identical to the unsharded plan. The split is a
// partial/final aggregation:
//
//   - The Partition box routes each tuple to one shard by hash of the dedup
//     key (tags never cross shards, so per-key latest-wins dedup stays
//     exact; keyless configs route round-robin, which is exact because they
//     do no dedup) and broadcasts every window close from the replicated
//     window clock, so shard windows open and close exactly like the
//     unsharded window.
//   - Each shard instance does the per-tuple heavy lifting — windowing,
//     dedup, membership evaluation, and the aggregate's Prepare (gating +
//     moment extraction for sums, sketching for quantiles and top-k) — and
//     emits, per window close, its per-group prepared contribution lists
//     tagged with the partitioner's arrival sequence. Each list is in
//     arrival order, so it is a Seq-ascending run.
//   - The merge box collects partials until every shard has forwarded the
//     window's close punctuation, merges each group's per-shard runs into
//     global arrival order, and folds with the aggregate's Finalize — the
//     exact code path the rescan realization uses — so the fold order, the
//     RNG seeding, and therefore the emitted bytes match the unsharded
//     plan.
//
// Groups are not used for routing because membership is probabilistic: one
// tuple belongs to several candidate groups, and evaluating membership in
// the single-threaded partitioner would serialize the very work sharding is
// meant to spread.

// PartitionedOp is implemented by operators that can execute as P parallel
// shard instances behind a stream.Partition / merge pair. The plan's merge
// must reproduce the unsharded operator's output bytes and order.
type PartitionedOp interface {
	stream.Operator
	// Shard returns the p-way sharded realization of this operator.
	Shard(p int) stream.ShardPlan
}

// windowAggOp is the windowed-aggregate box handle: it delegates streaming
// execution to the unsharded realization (rescan or incremental, per
// config) and exposes the sharded realization to the query compiler and the
// configuration to the cluster planner.
type windowAggOp struct {
	stream.Operator
	cfg WindowAggConfig
}

// Shard implements PartitionedOp. Shard instances always use the rescan
// (per-window re-evaluation) form regardless of the incremental
// configuration: the incremental path's accumulators produce byte-identical
// output to the rescan path (pinned by the equivalence tests), so the
// sharded plan is equivalent to both. A shard still re-folds every window
// it closes: a sliding window re-emits each of its tuples' contributions
// once per slide (Duration/Slide times). What it does not repeat is the
// per-tuple work — membership and Prepare run once per tuple, and later
// windows copy the prepared contributions (windowPrep's memo).
func (o *windowAggOp) Shard(p int) stream.ShardPlan {
	cfg := o.cfg
	name := o.Name()
	shards := make([]stream.Operator, p)
	for i := range shards {
		shards[i] = NewWindowAggPartialOp(fmt.Sprintf("%s#%d/%d", name, i, p), cfg)
	}
	spec := cfg.Window
	plan := stream.ShardPlan{
		Partition: stream.PartitionSpec{Clock: &spec},
		Shards:    shards,
		Merge:     NewWindowAggMergeOp("merge·"+name, cfg, p),
	}
	if key := cfg.DedupKey; key != "" {
		plan.Partition.Route = func(t *stream.Tuple) (int, bool) {
			u := Unwrap(t)
			if !u.HasKey(key) {
				return 0, false // keyless: deterministic round-robin fallback
			}
			return stream.ShardOfKey(u.Key(key), p), true
		}
	}
	return plan
}

// WindowAggConfig exposes the aggregate's configuration to the cluster
// planner (internal/uop.Cluster), which splits the box at the same
// partial/merge boundary Shard uses — partials on remote workers, the
// deterministic merge on the router.
func (o *windowAggOp) WindowAggConfig() WindowAggConfig { return o.cfg }

// AggKind reports the aggregate kind ("sum", "quantile", "topk") for
// monitoring rows (/statsz).
func (o *windowAggOp) AggKind() string { return o.cfg.Agg.Kind() }

// aggKindOp tags the partial and merge realizations with their aggregate
// kind, so a cluster worker's /statsz box rows can name the operator it
// runs.
type aggKindOp struct {
	stream.Operator
	kind string
}

func (o *aggKindOp) AggKind() string { return o.kind }

// NewWindowAggPartialOp builds one shard (or cluster-worker) instance of a
// windowed aggregate: an externally clocked window whose close handler runs
// dedup + membership + Prepare over its slice of the window and emits
// per-group partials plus the forwarded close punctuations the merge
// counts.
func NewWindowAggPartialOp(name string, cfg WindowAggConfig) stream.Operator {
	prep := newWindowPrep(cfg)
	inner := stream.NewExternalWindow(name, cfg.Window, func(window []*stream.Tuple, end stream.Time, emit stream.Emit) {
		gps := prep.close(window, end)
		for i := range gps {
			emit(stream.NewTuple(partialSchema, end, &gps[i]))
		}
	})
	return &aggKindOp{Operator: inner, kind: cfg.Agg.Kind()}
}

// groupPartial is one shard's contribution list for one group of one
// window — the payload flowing from shard instances to the merge.
type groupPartial struct {
	end      stream.Time
	group    string
	contribs []PartialContrib
}

// partialSchema carries groupPartial payloads between shard and merge.
var partialSchema = stream.NewSchema("__partial")

// windowPrep is the window-close pass shared by the shard partials and the
// unsharded rescan: dedup, membership and Prepare over one window, grouped
// into per-group contribution lists in arrival order. Its scratch (dedup
// map, group index, contribution list) is reused across closes, and each
// close's output lives in one contribution array and one group array.
// Dedup is the unsharded plan's latest-wins (dedupLatest); within a
// shard it equals the unsharded dedup restricted to the shard's keys,
// because the partitioner routes all of a key's tuples to one shard.
//
// On sliding windows a tuple sits in several consecutive windows, and its
// prepared contributions depend on the tuple alone, so they are memoized
// for one close: a tuple prepared in the previous window is copied, not
// re-prepared. Two generations suffice because a tuple's windows are
// consecutive closes.
type windowPrep struct {
	cfg    WindowAggConfig
	memo   bool
	latest map[int64]*stream.Tuple
	surv   []*stream.Tuple
	index  map[string]int
	names  []string
	starts []int
	// cur holds this close's contributions in arrival order, tuple by
	// tuple; seen maps each tuple to its span in cur. prev/prevSeen are the
	// previous close's, kept only when memoizing.
	cur, prev      []preparedContrib
	seen, prevSeen map[*stream.Tuple]span
}

// preparedContrib is one contribution with its group name and, for this
// close, the group's index.
type preparedContrib struct {
	group string
	gi    int
	c     PartialContrib
}

type span struct{ off, n int }

func newWindowPrep(cfg WindowAggConfig) *windowPrep {
	wp := &windowPrep{cfg: cfg, memo: cfg.Window.Slide > 0, index: make(map[string]int)}
	if cfg.DedupKey != "" {
		wp.latest = make(map[int64]*stream.Tuple)
	}
	if wp.memo {
		wp.seen = make(map[*stream.Tuple]span)
		wp.prevSeen = make(map[*stream.Tuple]span)
	}
	return wp
}

// close prepares one window and returns its per-group partials, groups in
// first-contribution order and each group's contributions in window order.
// The returned slices are fresh per close; the caller may keep them.
func (wp *windowPrep) close(window []*stream.Tuple, end stream.Time) []groupPartial {
	if len(window) == 0 {
		return nil
	}
	survivors := window
	if wp.latest != nil {
		wp.surv = dedupLatest(wp.surv[:0], wp.latest, window, wp.cfg.DedupKey, Unwrap)
		survivors = wp.surv
	}
	if wp.memo {
		wp.cur, wp.prev = wp.prev[:0], wp.cur
		wp.seen, wp.prevSeen = wp.prevSeen, wp.seen
		clear(wp.seen)
	} else {
		wp.cur = wp.cur[:0]
	}
	for _, t := range survivors {
		wp.prepare(t)
	}

	// Index the groups in first-contribution order and count each.
	clear(wp.index)
	wp.names = wp.names[:0]
	wp.starts = wp.starts[:0]
	for i := range wp.cur {
		pc := &wp.cur[i]
		gi, ok := wp.index[pc.group]
		if !ok {
			gi = len(wp.names)
			wp.index[pc.group] = gi
			wp.names = append(wp.names, pc.group)
			wp.starts = append(wp.starts, 0)
		}
		pc.gi = gi
		wp.starts[gi]++
	}
	// Counting sort into one array: starts[g] becomes group g's fill cursor.
	off := 0
	for g, n := range wp.starts {
		wp.starts[g] = off
		off += n
	}
	contribs := make([]PartialContrib, len(wp.cur))
	gps := make([]groupPartial, len(wp.names))
	for g, name := range wp.names {
		gps[g] = groupPartial{end: end, group: name}
	}
	for i := range wp.cur {
		pc := &wp.cur[i]
		contribs[wp.starts[pc.gi]] = pc.c
		wp.starts[pc.gi]++
	}
	lo := 0
	for g := range gps {
		hi := wp.starts[g]
		gps[g].contribs = contribs[lo:hi:hi]
		lo = hi
	}
	if !wp.memo {
		clear(wp.cur) // drop tuple references until the next close
	}
	return gps
}

// prepare appends tuple t's contributions to cur: copied from the previous
// close when memoized, otherwise membership + Prepare.
func (wp *windowPrep) prepare(t *stream.Tuple) {
	off := len(wp.cur)
	if sp, ok := wp.prevSeen[t]; ok {
		wp.cur = append(wp.cur, wp.prev[sp.off:sp.off+sp.n]...)
	} else {
		u := Unwrap(t)
		for _, gm := range wp.cfg.memberOf(u) {
			p := gm.P * u.Exist
			if p <= 0 {
				continue
			}
			d, aux := wp.cfg.Agg.Prepare(u, p)
			wp.cur = append(wp.cur, preparedContrib{group: gm.Group, c: PartialContrib{Seq: t.Seq, U: u, P: p, D: d, Aux: aux}})
		}
	}
	if wp.memo {
		wp.seen[t] = span{off: off, n: len(wp.cur) - off}
	}
}

// mergeWin accumulates one window's partials until every shard has closed:
// per group, in first-arrival order, the Seq-ascending runs the shards sent.
type mergeWin struct {
	end    stream.Time
	closes int
	index  map[string]int
	groups []mergeGroup
}

type mergeGroup struct {
	name string
	runs [][]PartialContrib
}

// add files one partial's contributions under its group.
func (w *mergeWin) add(group string, cs []PartialContrib) {
	gi, ok := w.index[group]
	if !ok {
		gi = len(w.groups)
		w.index[group] = gi
		w.groups = append(w.groups, mergeGroup{name: group})
	}
	g := &w.groups[gi]
	g.runs = appendRuns(g.runs, cs)
}

// appendRuns appends cs to runs, split into maximal Seq-ascending runs. A
// shard's partial is a single run (its window is in arrival order); a
// restored snapshot's list is the concatenation of several.
func appendRuns(runs [][]PartialContrib, cs []PartialContrib) [][]PartialContrib {
	lo := 0
	for i := 1; i < len(cs); i++ {
		if cs[i].Seq < cs[i-1].Seq {
			runs = append(runs, cs[lo:i:i])
			lo = i
		}
	}
	if lo < len(cs) {
		runs = append(runs, cs[lo:len(cs):len(cs)])
	}
	return runs
}

// mergeRuns merges Seq-ascending runs into dst (len(dst) = their total
// length). Ties go to the earlier run, so the result equals a stable sort of
// the runs' concatenation by Seq: the group's unsharded arrival order.
func mergeRuns(dst []PartialContrib, runs [][]PartialContrib) []PartialContrib {
	var hb [8]int // a group has one run per shard: no allocation for p ≤ 8
	heads := hb[:]
	if len(runs) > len(hb) {
		heads = make([]int, len(runs))
	}
	for i := range dst {
		best := -1
		for r, run := range runs {
			if h := heads[r]; h < len(run) && (best < 0 || run[h].Seq < runs[best][heads[best]].Seq) {
				best = r
			}
		}
		dst[i] = runs[best][heads[best]]
		heads[best]++
	}
	return dst
}

// windowAggMerge reunifies shard partials: one window finalizes after its
// close punctuation has arrived from all p shards (per-channel FIFO
// guarantees the shard's partials precede its close). Windows are
// identified by their close *ordinal* per input port — every shard forwards
// the same close sequence in the same order, so "the k-th close on port i"
// names the same window on every port, even when consecutive windows share
// an end timestamp (count windows over duplicate timestamps, where
// end-keyed matching would conflate them under channel interleaving).
// Finalization merges each group's per-shard runs into global arrival
// order, then folds with the aggregate's Finalize in group-name order — the
// exact unsharded emission.
type windowAggMerge struct {
	name string
	cfg  WindowAggConfig
	p    int

	// closed[i] counts closes received on port i: partials arriving on the
	// port belong to window ordinal closed[i].
	closed []int
	wins   map[int]*mergeWin
	next   int // lowest unfinalized window ordinal
}

// NewWindowAggMergeOp builds the p-way deterministic merge of a sharded or
// clustered windowed aggregate: port i carries shard/worker i's partials
// and closes.
func NewWindowAggMergeOp(name string, cfg WindowAggConfig, p int) stream.Operator {
	return &windowAggMerge{name: name, cfg: cfg, p: p, closed: make([]int, p), wins: make(map[int]*mergeWin)}
}

func (o *windowAggMerge) Name() string    { return o.name }
func (o *windowAggMerge) AggKind() string { return o.cfg.Agg.Kind() }

func (o *windowAggMerge) win(ordinal int) *mergeWin {
	w := o.wins[ordinal]
	if w == nil {
		w = &mergeWin{index: make(map[string]int)}
		o.wins[ordinal] = w
	}
	return w
}

func (o *windowAggMerge) Process(port int, t *stream.Tuple, emit stream.Emit) {
	if port < 0 || port >= o.p {
		panic(fmt.Sprintf("core: window-agg merge has %d ports, got %d", o.p, port))
	}
	if end, ok := stream.WindowCloseOf(t); ok {
		ordinal := o.closed[port]
		o.closed[port]++
		w := o.win(ordinal)
		w.end = end
		w.closes++
		if w.closes == o.p {
			o.finalize(ordinal, w, emit)
		}
		return
	}
	if stream.IsControl(t) {
		return // punctuations end their envelope here
	}
	gp := t.Get("__partial").(*groupPartial)
	o.win(o.closed[port]).add(gp.group, gp.contribs)
}

// finalize emits the completed window through the shared emitFinalized
// fold, each group's runs merged into global arrival order (a group a
// single shard fed passes its run through uncopied; the rest share one
// fresh array).
func (o *windowAggMerge) finalize(ordinal int, w *mergeWin, emit stream.Emit) {
	delete(o.wins, ordinal)
	if ordinal >= o.next {
		o.next = ordinal + 1
	}
	n := 0
	for _, g := range w.groups {
		if len(g.runs) > 1 {
			n += runsLen(g.runs)
		}
	}
	buf := make([]PartialContrib, n)
	gps := make([]groupPartial, 0, len(w.groups))
	for _, g := range w.groups {
		var cs []PartialContrib
		switch len(g.runs) {
		case 0:
		case 1:
			cs = g.runs[0]
		default:
			m := runsLen(g.runs)
			cs, buf = mergeRuns(buf[:m:m], g.runs), buf[m:]
		}
		gps = append(gps, groupPartial{end: w.end, group: g.name, contribs: cs})
	}
	emitFinalized(o.cfg, gps, w.end, emit)
}

func runsLen(runs [][]PartialContrib) int {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	return n
}

// Flush finalizes any windows still pending, in ordinal order — defensive:
// the partitioner's Flush broadcasts the final closes, so under both
// executors every window completes before the merge flushes.
func (o *windowAggMerge) Flush(emit stream.Emit) {
	for len(o.wins) > 0 {
		w := o.wins[o.next]
		if w == nil {
			// No partials and no closes for this ordinal: skip forward.
			ordinal, found := -1, false
			for k := range o.wins {
				if !found || k < ordinal {
					ordinal, found = k, true
				}
			}
			o.next = ordinal
			w = o.wins[ordinal]
		}
		o.finalize(o.next, w, emit)
	}
}
