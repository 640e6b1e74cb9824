package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
)

// qaggOf builds a quantile aggregate and a contribution list from certain
// values with the given inclusion probabilities.
func qContribsOf(a *quantileAgg, vals, ps []float64) []qContrib {
	cs := make([]qContrib, len(vals))
	for i, v := range vals {
		d := dist.PointMass{V: v}
		cs[i] = qContrib{d: d, p: ps[i], pts: a.sketch(d)}
	}
	return cs
}

func TestPBTail(t *testing.T) {
	dp := make([]float64, 8)
	cases := []struct {
		ts   []float64
		k    int
		want float64
	}{
		{[]float64{1, 1, 1}, 2, 1},
		{[]float64{0, 0, 0}, 1, 0},
		{[]float64{0.5, 0.5}, 1, 0.75},
		{[]float64{0.5, 0.5}, 2, 0.25},
		{[]float64{0.2, 0.7, 0.4}, 1, 1 - 0.8*0.3*0.6},
	}
	for _, tc := range cases {
		if got := pbTail(dp[:tc.k+1], tc.ts, tc.k); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("pbTail(%v, %d) = %.17g, want %.17g", tc.ts, tc.k, got, tc.want)
		}
	}
}

// TestQuantileExactCertain: with certain values and unit inclusion, the
// exact path must reproduce the classical order statistic — the median of
// {1..5} is 3, and the result distribution concentrates there.
func TestQuantileExactCertain(t *testing.T) {
	a := NewQuantileAgg("v", 0.5, QuantileOptions{}).(*quantileAgg)
	cs := qContribsOf(a, []float64{5, 1, 4, 2, 3}, []float64{1, 1, 1, 1, 1})
	d := a.result(cs)
	if m := d.Mean(); math.Abs(m-3) > 0.05 {
		t.Errorf("median of {1..5} has mean %.4f, want ≈3", m)
	}
	if sd := d.Std(); sd > 0.05 {
		t.Errorf("certain median has sd %.4f, want ≈0 (grid resolution)", sd)
	}
}

// TestQuantileExactUncertainMembership: with every inclusion probability at
// 0.5 the median becomes a genuine random variable — its distribution must
// spread (positive variance, unlike the certain case) while the mean stays a
// plausible median of the surviving subset, near the population median.
func TestQuantileExactUncertainMembership(t *testing.T) {
	a := NewQuantileAgg("v", 0.5, QuantileOptions{}).(*quantileAgg)
	vals := []float64{10, 20, 30, 40, 50, 60}
	full := a.result(qContribsOf(a, vals, []float64{1, 1, 1, 1, 1, 1}))
	half := a.result(qContribsOf(a, vals, []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}))
	if m := full.Mean(); math.Abs(m-30) > 0.5 {
		t.Errorf("full-inclusion median mean %.3f, want ≈30 (the 3rd order statistic)", m)
	}
	if m := half.Mean(); m < 20 || m > 50 {
		t.Errorf("half-inclusion median mean %.3f outside the plausible range (20, 50)", m)
	}
	if half.Variance() <= full.Variance() {
		t.Errorf("uncertain membership variance %.4f not above certain %.4f",
			half.Variance(), full.Variance())
	}
}

// TestQuantileEstimatorMatchesExactRoughly: on Gaussian contributions the
// sketch estimator must land near the exact path's answer.
func TestQuantileEstimatorMatchesExactRoughly(t *testing.T) {
	exact := NewQuantileAgg("v", 0.5, QuantileOptions{}).(*quantileAgg)
	est := NewQuantileAgg("v", 0.5, QuantileOptions{MaxExact: 1}).(*quantileAgg)
	var csE, csS []qContrib
	for i := 0; i < 20; i++ {
		d := dist.NewNormal(float64(10+i), 2)
		csE = append(csE, qContrib{d: d, p: 1, pts: exact.sketch(d)})
		csS = append(csS, qContrib{d: d, p: 1, pts: est.sketch(d)})
	}
	de, ds := exact.result(csE), est.result(csS)
	if math.Abs(de.Mean()-ds.Mean()) > 2 {
		t.Errorf("estimator mean %.3f far from exact %.3f", ds.Mean(), de.Mean())
	}
	if ds.Std() <= 0 {
		t.Errorf("estimator reported no uncertainty")
	}
}

// TestQuantileEdgeLevels: q = 0 and q = 1 select the extreme order
// statistics; q = 0 must not exceed q = 1.
func TestQuantileEdgeLevels(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	ps := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	lo := NewQuantileAgg("v", 0, QuantileOptions{}).(*quantileAgg)
	hi := NewQuantileAgg("v", 1, QuantileOptions{}).(*quantileAgg)
	dl := lo.result(qContribsOf(lo, vals, ps))
	dh := hi.result(qContribsOf(hi, vals, ps))
	if math.Abs(dl.Mean()-1) > 0.05 {
		t.Errorf("q=0 mean %.4f, want ≈1 (the minimum)", dl.Mean())
	}
	if math.Abs(dh.Mean()-9) > 0.05 {
		t.Errorf("q=1 mean %.4f, want ≈9 (the maximum)", dh.Mean())
	}
}

// TestQuantileAccMatchesFinalize: the incremental accumulator and the
// partial-merge Finalize must produce bit-identical results on the same
// contributions — including after removals.
func TestQuantileAccMatchesFinalize(t *testing.T) {
	agg := NewQuantileAgg("v", 0.5, QuantileOptions{})
	acc := agg.NewAcc()
	us := make([]*UTuple, 8)
	handles := make([]uint64, 8)
	for i := range us {
		us[i] = NewUTuple(stream.Time(i), []string{"v"}, []dist.Dist{dist.NewNormal(float64(i*3), 1+float64(i%3))})
		handles[i] = acc.Add(us[i], 0.25+0.1*float64(i%5))
	}
	acc.Remove(handles[2])
	acc.Remove(handles[5])
	var cs []PartialContrib
	for i, u := range us {
		if i == 2 || i == 5 {
			continue
		}
		d, aux := agg.Prepare(u, 0.25+0.1*float64(i%5))
		cs = append(cs, PartialContrib{Seq: uint64(i), U: u, P: 0.25 + 0.1*float64(i%5), D: d, Aux: aux})
	}
	got := acc.Result(nil)
	want := agg.Finalize(cs)
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("row counts %d, %d", len(got), len(want))
	}
	if got[0].D.Mean() != want[0].D.Mean() || got[0].D.Variance() != want[0].D.Variance() {
		t.Errorf("acc %.17g/%.17g != finalize %.17g/%.17g",
			got[0].D.Mean(), got[0].D.Variance(), want[0].D.Mean(), want[0].D.Variance())
	}
}

// exactReference is the per-edge tabulation the event-driven exact
// replaced: every contribution's CDF at every grid edge and the DP rerun at
// every edge, through pbTailReference. It is the oracle exact must match
// bit for bit.
func exactReference(a *quantileAgg, cs []qContrib, w float64, k int) dist.Dist {
	ps := make([]float64, len(cs))
	for i, c := range cs {
		ps[i] = c.p
	}
	dp := make([]float64, k+1)
	pN := pbTailReference(dp, ps, k)
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
	g := a.opts.GridPoints
	ts := make([]float64, len(cs))
	masses := make([]float64, g)
	prev := 0.0
	for e := 1; e <= g; e++ {
		x := lo + (hi-lo)*float64(e)/float64(g)
		for i, c := range cs {
			ts[i] = c.p * c.d.CDF(x)
		}
		f := pbTailReference(dp, ts, k) / pN
		if f > 1 {
			f = 1
		}
		masses[e-1] = math.Max(0, f-prev)
		prev = f
	}
	return dist.NewHistogram(lo, hi, masses)
}

// pbTailReference is pbTail without the zero-trial skip: negative trials
// clamp to 0 and run through the DP like any other.
func pbTailReference(dp []float64, ts []float64, k int) float64 {
	dp = dp[:k+1]
	for i := range dp {
		dp[i] = 0
	}
	dp[0] = 1
	for _, t := range ts {
		if t < 0 {
			t = 0
		} else if t > 1 {
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

// sameBits reports where two exact-path results differ bitwise: the point
// value, or the histogram's lo, hi and every bin mass. Empty means equal.
func sameBits(got, want dist.Dist) string {
	bits := math.Float64bits
	switch w := want.(type) {
	case dist.PointMass:
		g, ok := got.(dist.PointMass)
		if !ok || bits(g.V) != bits(w.V) {
			return fmt.Sprintf("got %v, want %v", got, want)
		}
	case *dist.Histogram:
		g, ok := got.(*dist.Histogram)
		switch {
		case !ok:
			return fmt.Sprintf("got %T, want a histogram", got)
		case bits(g.Lo) != bits(w.Lo) || bits(g.Hi) != bits(w.Hi):
			return fmt.Sprintf("range [%.17g, %.17g], want [%.17g, %.17g]", g.Lo, g.Hi, w.Lo, w.Hi)
		case len(g.Probs) != len(w.Probs):
			return fmt.Sprintf("%d bins, want %d", len(g.Probs), len(w.Probs))
		}
		for i := range w.Probs {
			if bits(g.Probs[i]) != bits(w.Probs[i]) {
				return fmt.Sprintf("bin %d mass %.17g, want %.17g", i, g.Probs[i], w.Probs[i])
			}
		}
	default:
		return fmt.Sprintf("unexpected reference result %T", want)
	}
	return ""
}

// TestQuantileExactBitIdenticalToPerEdge: the event-driven exact must
// reproduce the per-edge tabulation bit for bit on randomized mixes of
// point-mass, normal and uniform contributions — with values on grid edges,
// at the range ends, duplicated and NaN, inclusion 1, 0 and out of range,
// and k at both ends of 1..n.
func TestQuantileExactBitIdenticalToPerEdge(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	const g = 60 // not a power of two, so edge rounding is observable
	a := NewQuantileAgg("v", 0.5, QuantileOptions{GridPoints: g}).(*quantileAgg)
	prob := func() float64 {
		switch x := r.Intn(40); {
		case x == 0:
			// Out-of-range inclusions: p·0 is NaN for an infinite or NaN
			// p, and the per-edge product keeps that.
			return [...]float64{math.Inf(1), math.NaN(), -0.5}[r.Intn(3)]
		case x <= 16:
			return 1
		case x <= 20:
			return 0
		default:
			return r.Float64()
		}
	}
	histograms, cases := 0, 0
	for trial := 0; trial < 3000; trial++ {
		var ds []dist.Dist
		for n := 1 + r.Intn(16); len(ds) < n; {
			switch kind := r.Intn(6); {
			case trial%3 == 0 || kind < 3:
				// Integers in [0, g] with 0 and g present put every
				// all-certain trial's values exactly on its grid edges.
				ds = append(ds, dist.PointMass{V: float64(r.Intn(g + 1))})
			case kind < 5:
				ds = append(ds, dist.NewNormal(r.Float64()*g, 0.5+3*r.Float64()))
			default:
				lo := r.Float64() * g
				ds = append(ds, dist.Uniform{A: lo, B: lo + 0.5 + 5*r.Float64()})
			}
		}
		if trial%3 == 0 {
			ds = append(ds, dist.PointMass{V: 0}, dist.PointMass{V: g})
		}
		// Values exactly on edges of the trial's own grid, and at its
		// ends: inside [lo, hi], so they leave the range unchanged.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, d := range ds {
			l, h := dist.EffectiveRange(d, 1e-6)
			lo, hi = math.Min(lo, l), math.Max(hi, h)
		}
		extra := []float64{lo, hi, gridEdge(lo, hi, 1+r.Intn(g-1), g)}
		if trial%10 == 5 {
			extra = append(extra, math.NaN())
		}
		for _, v := range extra {
			for dup := 1 + r.Intn(2); dup > 0; dup-- {
				i := r.Intn(len(ds) + 1)
				ds = append(ds[:i], append([]dist.Dist{dist.PointMass{V: v}}, ds[i:]...)...)
			}
		}
		cs := make([]qContrib, len(ds))
		var w float64
		for i, d := range ds {
			cs[i] = qContrib{d: d, p: prob(), pts: a.sketch(d)}
			w += cs[i].p
		}
		n := len(cs)
		for _, k := range []int{1, n, 1 + r.Intn(n)} {
			want := exactReference(a, cs, w, k)
			if diff := sameBits(a.exact(cs, w, k), want); diff != "" {
				t.Fatalf("trial %d, n=%d, k=%d: %s\ncontributions: %+v", trial, n, k, diff, cs)
			}
			cases++
			if _, ok := want.(*dist.Histogram); ok {
				histograms++
			}
		}
	}
	// Most cases must reach the tabulation, not the point-answer exits
	// (NaN values, or k = n with a zero inclusion somewhere).
	if histograms < cases/2 {
		t.Errorf("only %d of %d cases tabulated a histogram", histograms, cases)
	}
}

// TestQuantileExactConcurrentScratch: folds run concurrently on the
// finalize worker pool and share exact's recycled scratch, so calls on
// different inputs from several goroutines must each still match the
// per-edge reference bit for bit (run under -race).
func TestQuantileExactConcurrentScratch(t *testing.T) {
	a := NewQuantileAgg("v", 0.5, QuantileOptions{}).(*quantileAgg)
	type job struct {
		cs   []qContrib
		w    float64
		k    int
		want dist.Dist
	}
	r := rand.New(rand.NewSource(3))
	jobs := make([]job, 8)
	for j := range jobs {
		n := 4 + 6*j
		cs := make([]qContrib, n)
		var w float64
		for i := range cs {
			var d dist.Dist = dist.PointMass{V: 40 * r.Float64()}
			if i%4 == 3 {
				d = dist.NewNormal(40*r.Float64(), 1+r.Float64())
			}
			cs[i] = qContrib{d: d, p: 0.3 + 0.7*r.Float64(), pts: a.sketch(d)}
			w += cs[i].p
		}
		k := 1 + r.Intn(n)
		jobs[j] = job{cs, w, k, exactReference(a, cs, w, k)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 25; rep++ {
				jb := jobs[(g+rep)%len(jobs)]
				if diff := sameBits(a.exact(jb.cs, jb.w, jb.k), jb.want); diff != "" {
					t.Errorf("goroutine %d, n=%d: %s", g, len(jb.cs), diff)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestActivationEdgeMatchesPointMassCDF: the binary search must land on the
// first edge where PointMass.CDF steps to 1, for values on, between and
// beyond the edges, and NaN.
func TestActivationEdgeMatchesPointMassCDF(t *testing.T) {
	const g = 16
	lo, hi := -1.5, 7.25
	vals := []float64{math.NaN(), math.Inf(-1), math.Inf(1), lo, hi, lo - 1, hi + 1}
	for e := 0; e <= g+1; e++ {
		x := gridEdge(lo, hi, e, g)
		vals = append(vals, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
	}
	for _, v := range vals {
		want := g + 1
		for e := g; e >= 1; e-- {
			if (dist.PointMass{V: v}).CDF(gridEdge(lo, hi, e, g)) == 1 {
				want = e
			}
		}
		if got := activationEdge(lo, hi, v, g); got != want {
			t.Errorf("activationEdge(%.17g) = %d, want %d", v, got, want)
		}
	}
}

// TestPBTailSkipsZeroTrials: interleaving zero, negative-zero and negative
// trials must leave the tail bitwise unchanged, and pbTail must agree bit
// for bit with the unskipped reference DP.
func TestPBTailSkipsZeroTrials(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dp := make([]float64, 32)
	zeros := []float64{0, math.Copysign(0, -1), -0.25}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(24)
		var plain, mixed []float64
		for i := 0; i < n; i++ {
			t := r.Float64()
			switch r.Intn(6) {
			case 0:
				t = 1
			case 1:
				t = 1.5 // clamps to 1
			}
			if trial%50 == 0 && i == n/2 {
				t = math.NaN()
			}
			plain = append(plain, t)
			mixed = append(mixed, t)
			for r.Intn(3) == 0 {
				mixed = append(mixed, zeros[r.Intn(len(zeros))])
			}
		}
		k := 1 + r.Intn(n)
		want := pbTail(dp, plain, k)
		for _, got := range []float64{pbTail(dp, mixed, k), pbTailReference(dp, mixed, k), pbTailReference(dp, plain, k)} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, k=%d: tail %.17g, want %.17g\nplain %v\nmixed %v", trial, k, got, want, plain, mixed)
			}
		}
	}
}

// BenchmarkQuantileExact times one exact-path tabulation (the default
// 256-edge grid, median) on all-certain contributions — the Q3 weight
// shape — and on a mix of point masses, normals and uniforms.
func BenchmarkQuantileExact(b *testing.B) {
	for _, mix := range []string{"certain", "mixed"} {
		for _, n := range []int{8, 24, 48} {
			b.Run(fmt.Sprintf("%s/n=%d", mix, n), func(b *testing.B) {
				a := NewQuantileAgg("v", 0.5, QuantileOptions{}).(*quantileAgg)
				r := rand.New(rand.NewSource(int64(n)))
				cs := make([]qContrib, n)
				var w float64
				for i := range cs {
					var d dist.Dist = dist.PointMass{V: 10 + 40*r.Float64()}
					if mix == "mixed" && i%3 == 1 {
						d = dist.NewNormal(10+40*r.Float64(), 1+4*r.Float64())
					} else if mix == "mixed" && i%3 == 2 {
						lo := 10 + 40*r.Float64()
						d = dist.Uniform{A: lo, B: lo + 1 + 5*r.Float64()}
					}
					cs[i] = qContrib{d: d, p: 0.2 + 0.8*r.Float64(), pts: a.sketch(d)}
					w += cs[i].p
				}
				k := int(math.Ceil(a.q*w - 1e-9))
				b.ReportAllocs()
				for b.Loop() {
					a.exact(cs, w, k)
				}
			})
		}
	}
}
