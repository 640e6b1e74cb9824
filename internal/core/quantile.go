package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/dist"
)

// Streaming quantiles over uncertain windows (PR 10). The query's QUANTILE(q)
// verb must answer "what is the q-quantile of the window's readings?" when
// every reading is a distribution and even window membership is
// probabilistic (existence × group membership). The aggregate follows the
// paper's result-distribution discipline: the answer is itself a
// distribution over the quantile's value, not a point estimate.
//
// Semantics. Let the live contributions be (X_i, p_i): X_i the attribute
// distribution, p_i the inclusion probability. The window's q-quantile is
// the k-th smallest included value, k = ⌈q·W⌉ with W = Σ p_i the expected
// population. Two regimes:
//
//   - Exact (small windows, n ≤ MaxExact): the order statistic's CDF is
//     P(X_(k) ≤ x | N ≥ k) = P(#{i : included_i ∧ X_i ≤ x} ≥ k) / P(N ≥ k),
//     where the count is Poisson-binomial with per-tuple success
//     t_i(x) = p_i·F_i(x). A truncated tail DP tabulates it on a fixed grid
//     and the result ships as a Histogram — exact up to grid resolution.
//   - Estimator (large windows): each contribution is compressed at Prepare
//     time into s centered-quantile sketch points of mass p_i/s; the weighted
//     lower quantile x̂ of the pooled points estimates the value, and the
//     classical asymptotic x̂ ± √(q(1−q)/W)/f(x̂) supplies the uncertainty
//     band (f estimated as the inclusion-weighted density mixture at x̂).
//     The result ships as a Normal.
//
// Both regimes are deterministic functions of the live contributions in
// insertion order, so the incremental accumulator, the rescan path, the
// sharded merge and the cluster merge all emit identical bytes — the same
// contract the gated sum rides.

// QuantileOptions tunes the quantile aggregate. The zero value selects the
// defaults.
type QuantileOptions struct {
	// SketchPoints is the number of centered-quantile points each
	// contribution compresses to on the estimator path (default 8).
	SketchPoints int
	// MaxExact is the largest live-contribution count handled by the exact
	// order-statistic DP; larger windows switch to the sketch estimator
	// (default 48).
	MaxExact int
	// GridPoints is the exact path's tabulation grid resolution
	// (default 256).
	GridPoints int
}

func (o QuantileOptions) withDefaults() QuantileOptions {
	if o.SketchPoints <= 0 {
		o.SketchPoints = 8
	}
	if o.MaxExact <= 0 {
		o.MaxExact = 48
	}
	if o.GridPoints <= 0 {
		o.GridPoints = 256
	}
	return o
}

// quantileAgg implements UAgg for streaming uncertain quantiles.
type quantileAgg struct {
	attr string
	q    float64
	opts QuantileOptions
}

// NewQuantileAgg builds the windowed q-quantile aggregate over the named
// uncertain attribute, for the spine (NewWindowAggOp / the Quantile query
// verb).
func NewQuantileAgg(attr string, q float64, opts QuantileOptions) UAgg {
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("core: quantile level %g outside [0, 1]", q))
	}
	return &quantileAgg{attr: attr, q: q, opts: opts.withDefaults()}
}

func (a *quantileAgg) Kind() string { return "quantile" }
func (a *quantileAgg) Attr() string { return a.attr }

// Heavy: the exact path's grid tabulation runs a Poisson-binomial DP at
// every grid edge where a contribution's CDF changes — worth a worker per
// group.
func (a *quantileAgg) Heavy() bool { return true }

// sketch compresses one attribute distribution to its centered-quantile
// points: d.Quantile((j+½)/s) for j = 0..s-1. Equal-mass representative
// points, exact for point masses, monotone by construction.
func (a *quantileAgg) sketch(d dist.Dist) []float64 {
	s := a.opts.SketchPoints
	pts := make([]float64, s)
	for j := 0; j < s; j++ {
		pts[j] = d.Quantile((float64(j) + 0.5) / float64(s))
	}
	return pts
}

// Prepare implements UAgg: the sketch points travel as Aux; the attribute
// distribution itself already rides inside the carrier tuple.
func (a *quantileAgg) Prepare(u *UTuple, p float64) (dist.Dist, []float64) {
	return nil, a.sketch(u.Attr(a.attr))
}

// qContrib is the aggregate's internal contribution form, shared by the
// accumulator and the Finalize fold so the two can never diverge.
type qContrib struct {
	d   dist.Dist
	p   float64
	pts []float64
}

func (a *quantileAgg) Finalize(cs []PartialContrib) []AggOut {
	qcs := make([]qContrib, len(cs))
	for i, c := range cs {
		qcs[i] = qContrib{d: c.U.Attr(a.attr), p: c.P, pts: c.Aux}
	}
	return []AggOut{{D: a.result(qcs)}}
}

func (a *quantileAgg) NewAcc() Acc {
	return &quantileAcc{agg: a}
}

// quantileAcc is the incremental accumulator: an insertion-ordered log of
// contributions. Result collects the live entries — the same list the
// rescan path builds — and runs the shared fold.
type quantileAcc struct {
	agg     *quantileAgg
	log     alog[qContrib]
	scratch []qContrib
}

func (a *quantileAcc) Add(u *UTuple, p float64) uint64 {
	d := u.Attr(a.agg.attr)
	return a.log.add(qContrib{d: d, p: p, pts: a.agg.sketch(d)})
}

func (a *quantileAcc) Remove(h uint64) { a.log.remove(h) }
func (a *quantileAcc) Len() int        { return a.log.liveN }

func (a *quantileAcc) Result(dst []AggOut) []AggOut {
	a.scratch = a.scratch[:0]
	a.log.each(func(_ uint64, c *qContrib) {
		a.scratch = append(a.scratch, *c)
	})
	return append(dst[:0], AggOut{D: a.agg.result(a.scratch)})
}

// result is the one fold both execution paths share: contributions in
// global insertion order in, the quantile's result distribution out.
func (a *quantileAgg) result(cs []qContrib) dist.Dist {
	if len(cs) == 0 {
		return dist.PointMass{V: 0}
	}
	var w float64
	for _, c := range cs {
		w += c.p
	}
	if w <= 0 {
		return dist.PointMass{V: 0}
	}
	k := int(math.Ceil(a.q*w - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > len(cs) {
		k = len(cs)
	}
	if len(cs) <= a.opts.MaxExact {
		return a.exact(cs, w, k)
	}
	return a.estimate(cs, w)
}

// exact tabulates the conditional order-statistic distribution
// P(X_(k) ≤ x | N ≥ k) on a grid over the combined effective range.
//
// The tabulation is event-driven. A point-mass contribution (a certain
// attribute) has a step t_i: p_i·0 below V and p_i·1 from the first grid
// edge x_e with !(x_e < V) on — the comparison PointMass.CDF makes. Those
// contributions are bucketed by that activation edge up front; only the
// rest are evaluated at every edge, and the DP reruns only at edges where
// some t_i changed bitwise. Elsewhere the previous f is carried: the same
// inputs give the same bits, so the histogram is identical to evaluating
// every contribution and rerunning the DP at every edge.
func (a *quantileAgg) exact(cs []qContrib, w float64, k int) dist.Dist {
	n, g := len(cs), a.opts.GridPoints
	sc := exactScratch.Get().(*qScratch)
	defer exactScratch.Put(sc)
	sc.f = resize(sc.f, n+k+1+g)
	ts, dp, masses := sc.f[:n], sc.f[n:n+k+1], sc.f[n+k+1:]
	// P(N ≥ k): the population must reach k for the k-th order statistic to
	// exist. Below machine scale the conditional is vacuous — report the
	// sketch quantile as a point answer rather than dividing by ~0.
	for i, c := range cs {
		ts[i] = c.p
	}
	pN := pbTail(dp, ts, k)
	if pN < 1e-12 {
		x, _ := a.sketchQuantile(cs, w)
		return dist.PointMass{V: x}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range cs {
		l, h := dist.EffectiveRange(c.d, 1e-6)
		lo = math.Min(lo, l)
		hi = math.Max(hi, h)
	}
	if !(hi > lo) {
		return dist.PointMass{V: lo}
	}
	// head[e] starts the list (linked through next) of point masses that
	// activate at edge e; cont lists the contributions evaluated per edge.
	sc.i = resize(sc.i, g+1+2*n)
	head, next, cont := sc.i[:g+1], sc.i[g+1:g+1+n], sc.i[g+1+n:g+1+n]
	for e := range head {
		head[e] = -1
	}
	for i, c := range cs {
		pm, ok := c.d.(dist.PointMass)
		if !ok {
			cont = append(cont, i)
			continue
		}
		ts[i] = c.p * 0 // not 0: an infinite or NaN p gives NaN, as p·CDF does
		if e := activationEdge(lo, hi, pm.V, g); e <= g {
			next[i] = head[e]
			head[e] = i
		}
	}
	var f, prev float64
	for e := 1; e <= g; e++ {
		changed := e == 1
		for i := head[e]; i >= 0; i = next[i] {
			t := cs[i].p // p·1
			changed = changed || math.Float64bits(t) != math.Float64bits(ts[i])
			ts[i] = t
		}
		if len(cont) > 0 {
			x := gridEdge(lo, hi, e, g)
			for _, i := range cont {
				t := cs[i].p * cs[i].d.CDF(x)
				changed = changed || math.Float64bits(t) != math.Float64bits(ts[i])
				ts[i] = t
			}
		}
		if changed {
			f = pbTail(dp, ts, k) / pN
			if f > 1 {
				f = 1
			}
		}
		masses[e-1] = math.Max(0, f-prev)
		prev = f
	}
	return dist.NewHistogram(lo, hi, masses)
}

// qScratch is exact's working memory: trial probabilities, DP row and bin
// masses in f; activation buckets and the per-edge list in i. Every slot a
// call reads it writes first, and the histogram copies the masses, so a
// recycled scratch carries nothing between calls.
type qScratch struct {
	f []float64
	i []int
}

// exactScratch recycles qScratch across calls. Group folds run
// concurrently on the finalize worker pool, and once the DP runs only at
// changed edges, allocating the scratch afresh costs more than the DP.
var exactScratch = sync.Pool{New: func() any { return new(qScratch) }}

// resize returns s with length n, reallocating only when its capacity is
// short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// gridEdge is the e-th of the g tabulation edges over [lo, hi]. Each
// operation rounds monotonically, so the edges are nondecreasing in e —
// which activationEdge's binary search relies on.
func gridEdge(lo, hi float64, e, g int) float64 {
	return lo + (hi-lo)*float64(e)/float64(g)
}

// activationEdge returns the first edge e in 1..g with !(gridEdge(e) < v),
// where PointMass{V: v}.CDF steps from 0 to 1, or g+1 if no edge reaches v.
// A NaN v activates at edge 1, as the CDF's comparison does.
func activationEdge(lo, hi, v float64, g int) int {
	l, h := 1, g+1
	for l < h {
		m := int(uint(l+h) >> 1)
		if gridEdge(lo, hi, m, g) < v {
			l = m + 1
		} else {
			h = m
		}
	}
	return l
}

// estimate is the large-window path: weighted lower quantile of the pooled
// sketch points, wrapped in the asymptotic normal band.
func (a *quantileAgg) estimate(cs []qContrib, w float64) dist.Dist {
	x, ok := a.sketchQuantile(cs, w)
	if !ok {
		return dist.PointMass{V: 0}
	}
	// Density of the inclusion-weighted mixture at x̂.
	var f float64
	for _, c := range cs {
		f += c.p * c.d.PDF(x)
	}
	f /= w
	sd := 0.0
	if v := a.q * (1 - a.q); v > 0 {
		if f > 1e-12 {
			sd = math.Sqrt(v/w) / f
		} else {
			// Flat density at x̂ (a gap between point masses): fall back to
			// the data scale shrunk by the population.
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, c := range cs {
				lo = math.Min(lo, c.pts[0])
				hi = math.Max(hi, c.pts[len(c.pts)-1])
			}
			sd = (hi - lo) / math.Sqrt(w)
		}
	}
	if !(sd > 0) || math.IsInf(sd, 0) || math.IsNaN(sd) {
		return dist.PointMass{V: x}
	}
	return dist.NewNormal(x, sd)
}

// sketchQuantile returns the weighted lower q-quantile of the pooled sketch
// points: the smallest point whose cumulative weight reaches q·W. Ties and
// equal values resolve by insertion order (stable sort), so the answer is a
// deterministic function of the ordered contribution list.
func (a *quantileAgg) sketchQuantile(cs []qContrib, w float64) (float64, bool) {
	type wp struct {
		x, w float64
	}
	pts := make([]wp, 0, len(cs)*a.opts.SketchPoints)
	for _, c := range cs {
		pw := c.p / float64(len(c.pts))
		for _, x := range c.pts {
			pts = append(pts, wp{x: x, w: pw})
		}
	}
	if len(pts) == 0 {
		return 0, false
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	target := a.q * w
	cum := 0.0
	for _, p := range pts {
		cum += p.w
		if cum >= target-1e-12 {
			return p.x, true
		}
	}
	return pts[len(pts)-1].x, true
}

// pbTail returns P(Σ Bernoulli(t_i) ≥ k) for independent trials, k ≥ 1, via
// the truncated-count DP: dp[j] holds P(count = j) for j < k and dp[k] the
// absorbed P(count ≥ k). dp is caller-provided scratch of length k+1
// (resliced and zeroed here) so grid tabulation allocates once.
//
// Trials with t ≤ 0 are skipped: a zero trial maps every finite dp entry to
// itself bit for bit, and once a NaN trial has poisoned dp every entry is
// NaN either way, so the skip never changes the result.
func pbTail(dp []float64, ts []float64, k int) float64 {
	dp = dp[:k+1]
	for i := range dp {
		dp[i] = 0
	}
	dp[0] = 1
	for _, t := range ts {
		if t <= 0 {
			continue
		}
		if t > 1 {
			t = 1
		}
		dp[k] += t * dp[k-1]
		for j := k - 1; j >= 1; j-- {
			dp[j] = dp[j]*(1-t) + t*dp[j-1]
		}
		dp[0] *= 1 - t
	}
	return dp[k]
}
