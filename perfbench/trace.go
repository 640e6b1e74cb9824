package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/stream"
	"repro/internal/uop"
)

// This file is the traced run's instrumentation: a timing stream.Operator
// wrapped around every box of every plan the in-process SUT compiles.
//
// Each Process, Idle and Flush call is one span. Its self time is the call's
// duration minus the time spent inside emit, which is the downstream
// hand-off (a channel send that blocks when the next box's input is full);
// that part is counted as blocked. Per-tuple calls are folded into per-box
// counters; calls that close a window keep their own span, keyed by the
// window end, so they can be joined to the latency of the same window.

// Box roles, from the operator's concrete type.
const (
	rolePartition = "partition"
	roleMerge     = "merge"
	roleAgg       = "agg" // a windowed aggregate box: whole, partial, or merge half
	roleOther     = "other"
)

// BoxTrace accumulates one box's spans.
type BoxTrace struct {
	Plan int    // which compiled plan (in factory call order)
	Name string // operator name
	Type string // operator's Go type
	Role string
	// Calls counts Process calls; Closes the calls that closed a window.
	Calls, Closes int64
	// Self and Blocked sum over all spans (Process, Idle, Flush);
	// CloseSelf is the self time of window-closing Process calls.
	Self, Blocked, CloseSelf time.Duration
	// Spans holds the window-closing calls.
	Spans []CloseSpan
}

// CloseSpan is one window-closing Process call.
type CloseSpan struct {
	End     int64 // window end (t_ms)
	Start   time.Duration
	Self    time.Duration
	Blocked time.Duration
}

// Tracer hands out timing wrappers and keeps their boxes.
type Tracer struct {
	base  time.Time
	mu    sync.Mutex
	plans int
	boxes []*BoxTrace
}

func newTracer() *Tracer { return &Tracer{base: time.Now()} }

// Wrap replaces every box operator of a freshly compiled plan with its
// timing wrapper. It must run before the plan processes any tuple.
func (tr *Tracer) Wrap(c *uop.Compiled) *uop.Compiled {
	tr.mu.Lock()
	plan := tr.plans
	tr.plans++
	tr.mu.Unlock()
	for _, b := range c.Graph.Boxes() {
		bt := &BoxTrace{Plan: plan, Name: b.Op.Name(), Type: fmt.Sprintf("%T", b.Op), Role: roleOf(b.Op)}
		tr.mu.Lock()
		tr.boxes = append(tr.boxes, bt)
		tr.mu.Unlock()
		b.Op = wrapOp(b.Op, bt, tr.base)
	}
	return c
}

// WrapFactory wraps a per-epoch plan factory.
func (tr *Tracer) WrapFactory(f func() *uop.Compiled) func() *uop.Compiled {
	return func() *uop.Compiled { return tr.Wrap(f()) }
}

// Boxes returns the traced boxes. Read it only after the SUT has stopped:
// each box's counters are written by the box's own goroutine.
func (tr *Tracer) Boxes() []*BoxTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]*BoxTrace(nil), tr.boxes...)
}

func roleOf(op stream.Operator) string {
	if _, ok := op.(interface{ AggKind() string }); ok {
		return roleAgg
	}
	switch t := fmt.Sprintf("%T", op); {
	case strings.Contains(t, "partition"):
		return rolePartition
	case strings.Contains(strings.ToLower(t), "merge"):
		return roleMerge
	}
	return roleOther
}

// timedOp is the wrapper. The scratch fields are per call; a box's
// operator is only ever driven from one goroutine at a time.
type timedOp struct {
	inner stream.Operator
	bt    *BoxTrace
	base  time.Time

	down    stream.Emit
	emitFn  stream.Emit
	blocked time.Duration
	outEnd  int64
	emitted bool
}

func wrapOp(op stream.Operator, bt *BoxTrace, base time.Time) stream.Operator {
	t := &timedOp{inner: op, bt: bt, base: base}
	t.emitFn = t.emit
	_, idle := op.(stream.IdleOp)
	_, snap := op.(stream.Snapshotter)
	switch {
	case idle && snap:
		return &timedIdleSnap{t}
	case idle:
		return &timedIdle{t}
	case snap:
		return &timedSnap{t}
	}
	return t
}

func (o *timedOp) emit(t *stream.Tuple) {
	if !o.emitted {
		o.emitted = true
		if !stream.IsControl(t) {
			o.outEnd = int64(t.TS)
		}
	}
	s := time.Now()
	o.down(t)
	o.blocked += time.Since(s)
}

// span runs one call of the inner operator and returns its duration and
// the part of it spent inside emit.
func (o *timedOp) span(emit stream.Emit, call func(stream.Emit)) (start time.Time, total, blocked time.Duration) {
	o.down, o.blocked, o.emitted, o.outEnd = emit, 0, false, 0
	start = time.Now()
	call(o.emitFn)
	return start, time.Since(start), o.blocked
}

func (o *timedOp) Name() string { return o.inner.Name() }

func (o *timedOp) Process(port int, t *stream.Tuple, emit stream.Emit) {
	o.down, o.blocked, o.emitted, o.outEnd = emit, 0, false, 0
	start := time.Now()
	o.inner.Process(port, t, o.emitFn)
	total, blocked := time.Since(start), o.blocked
	bt := o.bt
	bt.Calls++
	bt.Self += total - blocked
	bt.Blocked += blocked
	end, isClose := stream.WindowCloseOf(t)
	if !isClose && o.emitted && o.outEnd > 0 && bt.Role == roleAgg {
		// A data tuple that closed windows: the outputs carry the end.
		end, isClose = stream.Time(o.outEnd), true
	}
	if isClose && bt.Role == roleAgg {
		bt.Closes++
		bt.CloseSelf += total - blocked
		bt.Spans = append(bt.Spans, CloseSpan{End: int64(end), Start: start.Sub(o.base), Self: total - blocked, Blocked: blocked})
	}
}

func (o *timedOp) Flush(emit stream.Emit) {
	_, total, blocked := o.span(emit, o.inner.Flush)
	o.bt.Self += total - blocked
	o.bt.Blocked += blocked
}

// AggKind forwards the /statsz aggregate label ("" for other boxes, which
// /statsz omits either way).
func (o *timedOp) AggKind() string {
	if ak, ok := o.inner.(interface{ AggKind() string }); ok {
		return ak.AggKind()
	}
	return ""
}

func (o *timedOp) idle(emit stream.Emit) {
	_, total, blocked := o.span(emit, o.inner.(stream.IdleOp).Idle)
	o.bt.Self += total - blocked
	o.bt.Blocked += blocked
}

func (o *timedOp) snapshot() ([]byte, error) { return o.inner.(stream.Snapshotter).Snapshot() }
func (o *timedOp) restore(b []byte) error    { return o.inner.(stream.Snapshotter).Restore(b) }

// The wrapper exposes exactly the optional interfaces its operator has, so
// the executor's Idle hook and checkpoints behave as without tracing.
type timedIdle struct{ *timedOp }

func (o *timedIdle) Idle(emit stream.Emit) { o.idle(emit) }

type timedSnap struct{ *timedOp }

func (o *timedSnap) Snapshot() ([]byte, error) { return o.snapshot() }
func (o *timedSnap) Restore(b []byte) error    { return o.restore(b) }

type timedIdleSnap struct{ *timedOp }

func (o *timedIdleSnap) Idle(emit stream.Emit)     { o.idle(emit) }
func (o *timedIdleSnap) Snapshot() ([]byte, error) { return o.snapshot() }
func (o *timedIdleSnap) Restore(b []byte) error    { return o.restore(b) }

// roleTotals sums the boxes of one role.
type roleTotals struct {
	Calls, Closes            int64
	Self, Blocked, CloseSelf time.Duration
	Windows                  map[int64]bool
}

func totalsByRole(boxes []*BoxTrace) map[string]*roleTotals {
	out := map[string]*roleTotals{}
	for _, b := range boxes {
		t := out[b.Role]
		if t == nil {
			t = &roleTotals{Windows: map[int64]bool{}}
			out[b.Role] = t
		}
		t.Calls += b.Calls
		t.Closes += b.Closes
		t.Self += b.Self
		t.Blocked += b.Blocked
		t.CloseSelf += b.CloseSelf
		for _, s := range b.Spans {
			t.Windows[s.End] = true
		}
	}
	return out
}

// sortedBoxes orders boxes by plan, then by descending self time.
func sortedBoxes(boxes []*BoxTrace) []*BoxTrace {
	out := append([]*BoxTrace(nil), boxes...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Plan != out[j].Plan {
			return out[i].Plan < out[j].Plan
		}
		return out[i].Self > out[j].Self
	})
	return out
}
