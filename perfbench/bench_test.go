package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/stream"
)

// smallInput builds a workload's input from a small trace, so the tests
// exercise the real lap construction and reference plans in seconds.
func smallInput(t *testing.T, w Workload) *Input {
	t.Helper()
	in, err := newInput(w, traceMsgs(3, 600, 300))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestLapShiftKeepsWindowsAlignedAndReferenceEqual(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			in := smallInput(t, w)
			step, rng := w.step(), int64(w.Spec().Duration)
			first, last := in.Msgs[0].T, in.Msgs[len(in.Msgs)-1].T
			if in.Shift%step != 0 {
				t.Fatalf("shift %d is not a whole number of %d ms steps: windows would leave lap 0's grid", in.Shift, step)
			}
			// The last window holding a lap-L tuple ends before the first
			// window holding a lap-(L+1) tuple can start.
			lastEnd := first + ((last-first)/step+1)*step + rng - step
			if next := first + in.Shift; next < lastEnd {
				t.Fatalf("lap 1 starts at %d, inside lap 0's window ending %d", next, lastEnd)
			}

			laps, err := referenceLaps(w, in, 3)
			if err != nil {
				t.Fatal(err)
			}
			for lap := 1; lap < 3; lap++ {
				if err := sameShifted(laps[0], laps[lap], int64(lap)*in.Shift); err != nil {
					t.Fatalf("lap %d: %v", lap, err)
				}
			}
			// The checker's expected stream is the reference, lap after lap.
			var all [][]byte
			for _, l := range laps {
				all = append(all, l...)
			}
			for k, want := range all {
				if got := in.expected(nil, k); !bytes.Equal(got, want) {
					t.Fatalf("expected(%d) = %s, reference has %s", k, got, want)
				}
			}
		})
	}
}

// syntheticInput is a two-window lap: tuples at t_ms 0, 1000, 5000, 5000,
// 7000 and 9000 on a 5 s tumbling grid. The window ending at 5000 closes on
// tuple 2; the one ending at 10000 outlives the lap and closes on the next
// lap's first tuple.
func syntheticInput() *Input {
	var msgs []server.Msg
	for _, ts := range []int64{0, 1000, 5000, 5000, 7000, 9000} {
		msgs = append(msgs, server.Msg{Kind: server.KindTuple, T: ts})
	}
	lines := [][]byte{
		[]byte(`{"kind":"alert","t_ms":5000,"group":"a"}` + "\n"),
		[]byte(`{"kind":"alert","t_ms":5000,"group":"b"}` + "\n"),
		[]byte(`{"kind":"alert","t_ms":10000,"group":"a"}` + "\n"),
	}
	ref, err := indexReference(lines, msgs)
	if err != nil {
		panic(err)
	}
	return &Input{Msgs: msgs, Shift: 15000, Ref: ref}
}

func TestAlertMatchedToClosingTupleDueTime(t *testing.T) {
	in := syntheticInput()
	if want := []int{2, 6}; !reflect.DeepEqual(in.Ref.WinClose, want) {
		t.Fatalf("closing tuples %v, want %v", in.Ref.WinClose, want)
	}
	if want := []int{1, 2}; !reflect.DeepEqual(in.Ref.WinLast, want) {
		t.Fatalf("last lines %v, want %v", in.Ref.WinLast, want)
	}
	const rate = 1000 // tuple i is due at i ms
	start := time.Unix(100, 0)
	at := func(msAfter int) time.Time { return start.Add(time.Duration(msAfter) * time.Millisecond) }
	obs := []winObs{
		{Win: 0, At: at(5)},  // lap 0, end 5000: closed by tuple 2
		{Win: 1, At: at(9)},  // lap 0, end 10000: closed by tuple 6 (lap 1's first)
		{Win: 2, At: at(11)}, // lap 1, end 20000: closed by tuple 8
		{Win: 3, At: at(20)}, // lap 1, end 25000: closed by tuple 12, past the open loop
	}
	got := latencies(in, obs, start, 0, 12, rate)
	want := []latSample{{End: 5000, MS: 3}, {End: 10000, MS: 3}, {End: 20000, MS: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("latencies %v, want %v", got, want)
	}
}

func TestSliceRatesAndCPUPerK(t *testing.T) {
	in := syntheticInput()
	start := time.Unix(100, 0)
	at := func(msAfter int) time.Time { return start.Add(time.Duration(msAfter) * time.Millisecond) }
	// Closing tuples of windows 0..5: 2, 6, 8, 12, 14, 18.
	obs := []winObs{
		{Win: 0, At: at(0)},    // closed by an open-loop tuple: skipped
		{Win: 1, At: at(50)},   // first saturation window: opens a slice
		{Win: 2, At: at(550)},  // inside the slice
		{Win: 3, At: at(1300)}, // ends it: 6 tuples in 1.25 s
		{Win: 4, At: at(1550)},
		{Win: 5, At: at(2800)}, // 6 tuples in 1.5 s
	}
	if got, want := satRates(in, obs, 6), []float64{4.8, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("satRates %v, want %v", got, want)
	}
	r := &LoadResult{CPUMarks: []cpuMark{
		{Sent: 0, CPU: 0},
		{Sent: 1000, CPU: 500 * time.Millisecond},
		{Sent: 1000, CPU: 600 * time.Millisecond}, // no tuples sent: no slice
		{Sent: 3000, CPU: 2600 * time.Millisecond},
	}}
	if got, want := r.cpuPerK(), []float64{500, 1000}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cpuPerK %v, want %v", got, want)
	}
}

func TestPercentileReportsSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want Pctl
	}{
		{1000, 0.99, Pctl{Value: 990, N: 1000, Beyond: 10}},
		{1009, 0.99, Pctl{Value: 999, N: 1009, Beyond: 10}},
		{100, 0.99, Pctl{Value: 99, N: 100, Beyond: 1}},
		{10, 0.5, Pctl{Value: 5, N: 10, Beyond: 5}},
		{1, 0.99, Pctl{Value: 1, N: 1, Beyond: 0}},
		{0, 0.99, Pctl{}},
	} {
		if got := percentile(seq(c.n), c.q); got != c.want {
			t.Errorf("percentile(%d samples, %g) = %+v, want %+v", c.n, c.q, got, c.want)
		}
	}
}

// The timing wrapper must expose exactly the optional interfaces of the
// operator it wraps and leave checkpoints byte-identical.
func TestTimedOpPreservesInterfacesAndCheckpoints(t *testing.T) {
	w := workloads[0]
	in := smallInput(t, w)
	tr := newTracer()
	plain, traced := w.ServerPlan()(), tr.Wrap(w.ServerPlan()())
	pb, tb := plain.Graph.Boxes(), traced.Graph.Boxes()
	for i := range pb {
		_, idle := pb[i].Op.(stream.IdleOp)
		_, tidle := tb[i].Op.(stream.IdleOp)
		_, snap := pb[i].Op.(stream.Snapshotter)
		_, tsnap := tb[i].Op.(stream.Snapshotter)
		if idle != tidle || snap != tsnap || pb[i].Op.Name() != tb[i].Op.Name() {
			t.Errorf("box %s: idle %v/%v snapshot %v/%v", pb[i].Op.Name(), idle, tidle, snap, tsnap)
		}
	}
	for _, m := range in.Msgs[:len(in.Msgs)/2] {
		u, err := server.ParseTuple(m)
		if err != nil {
			t.Fatal(err)
		}
		plain.Push("locations", u)
		traced.PushTuple("locations", core.Wrap(u))
	}
	a, err := plain.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := traced.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("traced plan checkpoints differ from the plain plan's")
	}
	var calls int64
	for _, bt := range tr.Boxes() {
		calls += bt.Calls
	}
	if calls == 0 {
		t.Fatal("wrapped boxes recorded no calls")
	}
}

// BENCHMARK.json must name exactly the workloads and metrics this program
// reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why != workloads[i].Why {
			t.Errorf("workload %s: why differs from the program's", w.Name)
		}
	}
	var prog []string
	for _, w := range workloads {
		prog = append(prog, w.Name)
	}
	if !reflect.DeepEqual(names, prog) {
		t.Errorf("workloads %v, program runs %v", names, prog)
	}
	e := &E2E{Load: &LoadResult{}}
	check := func(what string, listed []struct{ Name, Unit string }, units map[string]string) {
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, units) {
			t.Errorf("%s: BENCHMARK.json lists %v, program reports %v", what, keys(got), keys(units))
		}
	}
	e2e := map[string]string{}
	for k, m := range e.endToEnd() {
		e2e[k] = m.Unit
	}
	check("end_to_end", spec.EndToEnd, e2e)
	check("per_layer", spec.PerLayer, perLayerUnits)
}

func keys(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, fmt.Sprintf("%s[%s]", k, v))
	}
	sort.Strings(out)
	return out
}
