package core

import (
	"repro/internal/stream"
)

// The adapters below run uncertain tuples through the box-arrow engine of
// internal/stream (Figure 2's architecture): each stream.Tuple carries one
// *UTuple in a single field, so the generic engine (windows, joins, graph
// wiring, channel execution) moves uncertain tuples without knowing about
// distributions, and the uncertainty-aware logic lives in these operator
// shims.

// utupleSchema is the single-field schema carrying uncertain tuples.
var utupleSchema = stream.NewSchema("u")

// Wrap lifts an uncertain tuple into a stream tuple.
func Wrap(u *UTuple) *stream.Tuple {
	t := stream.NewTuple(utupleSchema, u.TS, u)
	t.ID = u.ID
	return t
}

// Unwrap extracts the uncertain tuple (panics on foreign tuples — wiring
// errors should fail loudly during pipeline construction, not corrupt
// results silently).
func Unwrap(t *stream.Tuple) *UTuple {
	u, ok := t.Get("u").(*UTuple)
	if !ok {
		panic("core: stream tuple does not carry a UTuple")
	}
	return u
}

// NewSelectOp builds a stream operator applying an uncertain selection
// (e.g. a closure over SelectGreater) to each tuple; nil results are
// dropped. Extra certain columns riding alongside the payload (a group
// key, a having probability) pass through untouched, so selections
// compose after grouped stages.
func NewSelectOp(name string, sel func(*UTuple) *UTuple) stream.Operator {
	return stream.NewSelect(name, func(t *stream.Tuple) *stream.Tuple {
		in := Unwrap(t)
		out := sel(in)
		if out == nil {
			return nil
		}
		if out == in {
			return t // pure filter: the carrier is already right
		}
		if s := t.Schema(); s != nil && len(s.Names) > 1 {
			fields := append([]stream.Value(nil), t.Fields...)
			fields[s.MustIndex("u")] = out
			nt := stream.NewTuple(s, out.TS, fields...)
			nt.ID = out.ID
			return nt
		}
		return Wrap(out)
	})
}

// NewSumOp builds a windowed aggregation box summing the named uncertain
// attribute with the given strategy. Each window emits one derived tuple
// carrying the full result distribution. Sliding time windows take the
// incremental delta path automatically (per-tuple O(1) maintenance instead
// of a per-slide rescan); tumbling and count windows recompute per window,
// where a rescan is the natural cost.
func NewSumOp(name string, spec stream.WindowSpec, attr string, strat Strategy, opts AggOptions) stream.Operator {
	if spec.Slide > 0 {
		return newIncSumOp(name, spec, attr, strat, opts)
	}
	return NewSumRescanOp(name, spec, attr, strat, opts)
}

// NewSumRescanOp is the recompute form of NewSumOp: every window emission
// re-aggregates the full buffer. It is the reference the incremental path
// is tested against and the benchmark baseline.
func NewSumRescanOp(name string, spec stream.WindowSpec, attr string, strat Strategy, opts AggOptions) stream.Operator {
	return stream.NewWindow(name, spec, func(window []*stream.Tuple, end stream.Time, emit stream.Emit) {
		if len(window) == 0 {
			return
		}
		us := make([]*UTuple, len(window))
		for i, t := range window {
			us[i] = Unwrap(t)
		}
		result := SumTuples(us, attr, strat, opts)
		result.TS = end
		emit(Wrap(result))
	})
}

// GroupSumOpConfig parameterizes the probabilistic GROUP BY box.
type GroupSumOpConfig struct {
	// Window is the (tumbling/sliding/count) window policy.
	Window stream.WindowSpec
	// DedupKey, when set, keeps only the latest tuple per certain key
	// within each window before grouping — one contribution per object per
	// window (a reader reports a tag many times in 5 s; the latest
	// posterior has seen strictly more evidence).
	DedupKey string
	// Attr is the summed uncertain attribute.
	Attr string
	// Member assigns tuples to candidate groups with probabilities.
	Member Membership
	// Strategy/Agg select the aggregation algorithm.
	Strategy Strategy
	Agg      AggOptions
	// Recompute forces the rescan path even for window shapes the
	// incremental path covers — the reference semantics, and the baseline
	// arm of the incremental-aggregation benchmarks.
	Recompute bool
	// Workers bounds the per-group worker pool of the incremental path's
	// emission (0 = GOMAXPROCS, 1 = sequential). Output order is group-name
	// order regardless.
	Workers int
}

// NewGroupSumOp builds the probabilistic GROUP BY box (Q1's shape) on the
// stream engine: windows per spec, membership-weighted group sums, one
// output tuple per group with the group name attached as an attribute tag.
func NewGroupSumOp(name string, spec stream.WindowSpec, attr string, member Membership, strat Strategy, opts AggOptions) stream.Operator {
	return NewGroupSumWindowOp(name, GroupSumOpConfig{
		Window: spec, Attr: attr, Member: member, Strategy: strat, Agg: opts,
	})
}

// WindowAgg converts the sum-specific configuration to the generalized
// windowed-aggregate configuration the spine runs on.
func (cfg GroupSumOpConfig) WindowAgg() WindowAggConfig {
	return WindowAggConfig{
		Window:    cfg.Window,
		DedupKey:  cfg.DedupKey,
		Member:    cfg.Member,
		Agg:       NewSumAgg(cfg.Attr, cfg.Strategy, cfg.Agg),
		Recompute: cfg.Recompute,
		Workers:   cfg.Workers,
	}
}

// NewGroupSumWindowOp is NewGroupSumOp with the full configuration surface
// (per-key dedup, aggregation options, incremental/recompute selection) —
// sum sugar over NewWindowAggOp. Sliding time windows take the incremental
// delta path automatically — per-group SumState accumulators fed by window
// deltas, with membership and gating evaluated once per tuple instead of
// once per slide — unless cfg.Recompute pins the rescan path. Both paths
// produce byte-identical output on the same input (equivalence tests pin
// this).
func NewGroupSumWindowOp(name string, cfg GroupSumOpConfig) stream.Operator {
	return NewWindowAggOp(name, cfg.WindowAgg())
}

// dedupLatest keeps, per certain key, only the latest tuple (later arrival
// wins timestamp ties), appending the survivors to out in arrival order.
// Tuples missing the key are never deduplicated: each one survives (and, in
// the sharded plan, routes round-robin rather than panicking the
// partitioner). latest is reusable scratch, cleared first. The window-close
// pass (windowPrep, shard.go) is its one caller, for the unsharded rescan
// and every shard alike, so their dedup can never drift apart; it is
// generic over the element's UTuple accessor.
func dedupLatest[T comparable](out []T, latest map[int64]T, xs []T, key string, utuple func(T) *UTuple) []T {
	clear(latest)
	for _, x := range xs {
		u := utuple(x)
		k, keyed := u.Keys[key]
		if !keyed {
			continue
		}
		if cur, ok := latest[k]; !ok || u.TS >= utuple(cur).TS {
			latest[k] = x
		}
	}
	for _, x := range xs {
		if k, keyed := utuple(x).Keys[key]; !keyed || latest[k] == x {
			out = append(out, x)
		}
	}
	return out
}

// groupedSchema extends the carrier schema with the group key.
var groupedSchema = stream.NewSchema("u", "group")

// GroupOf reads the group key from a NewGroupSumOp output tuple.
func GroupOf(t *stream.Tuple) string { return t.Str("group") }

// NewJoinOp builds a probabilistic co-location join box over the stream
// engine's symmetric window join: tuples from port 0 (left) and port 1
// (right) match when their JoinProb clears minProb.
func NewJoinOp(name string, rangeMS stream.Time, locAttrs []string, tol, minProb float64) stream.Operator {
	return stream.NewJoin(name, rangeMS,
		// The window predicate re-checks the time distance explicitly: under
		// channel execution the two input ports drain from independent
		// upstream goroutines, so a slow side can present pairs the eviction
		// horizon alone would have excluded. Match probability is decided in
		// the emitter.
		func(l, r *stream.Tuple) bool {
			dt := l.TS - r.TS
			if dt < 0 {
				dt = -dt
			}
			return dt <= rangeMS
		},
		func(l, r *stream.Tuple) *stream.Tuple {
			out := JoinProb(Unwrap(l), Unwrap(r), locAttrs, tol, minProb)
			if out == nil {
				return nil
			}
			return Wrap(out)
		})
}
