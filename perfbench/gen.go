package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// Phases sets the length of the phases of a run.
type Phases struct {
	// Warm opens the open-loop phase unmeasured: a freshly started SUT
	// grows its heap, maps and queues through its first laps, and its
	// latency there says nothing about the steady state.
	Warm time.Duration
	// Open is the measured open-loop phase at the workload's fixed
	// offered rate, right after Warm.
	Open time.Duration
	// Sat is the saturation phase: send as fast as the SUT takes the input,
	// with at most a lap in flight; it runs on to the end of the current
	// lap, so the stream ends where the reference is known, then sends
	// "end" and waits for "done".
	Sat time.Duration
}

// satChunk and cpuChunk are the lengths of the slices of a phase whose
// median the throughput and CPU metrics report, so that a burst of
// interference from other tenants of the machine moves a few slices and
// not the median. A slice must span whole cycles of the SUT's own rhythm:
// q1-cluster's 1 s checkpoint rounds hold its alerts back for 140–240 ms
// each, and 200 ms slices of one run spread over 0.4–0.65 of their median
// against 0.08–0.16 for 1 s slices.
const (
	satChunk = time.Second
	cpuChunk = time.Second
)

// stallLimit fails a run whose SUT stops taking input or emitting alerts,
// well inside the 180 s a run may take.
const stallLimit = 60 * time.Second

// winObs is the moment a window's last alert line was read; Win numbers
// windows across laps (lap × windows-per-lap + window).
type winObs struct {
	Win int
	At  time.Time
}

// LoadResult is what one generator run observed.
type LoadResult struct {
	// WarmSent, OpenSent and Sent are the tuple counts at the ends of the
	// warm-up, the open-loop phase and the run.
	WarmSent, OpenSent, Sent int
	// Expected is the alert count the reference predicts for Sent tuples.
	Expected int
	// Received counts alert lines; Mismatched those not byte-identical to
	// the reference; Rejected the tuples the SUT answered with "err";
	// Other any unexpected subscriber line.
	Received, Mismatched, Rejected, Other int
	FirstMismatch                         string
	// DoneAlerts is the alert count the SUT's "done" line reports.
	DoneAlerts uint64
	// OpenStart is the due time of tuple 0; SatStart the first saturation
	// send; Done the moment "done" was read.
	OpenStart, SatStart, Done time.Time
	// Windows are the completion times of every window's alerts.
	Windows []winObs
	// Late is each open-loop send's slip behind its due time, in ms.
	Late []float64
	// CPUMarks sample the SUT's CPU time every cpuChunk of the measured
	// open loop, from its first send to its end.
	CPUMarks []cpuMark
	// StealShare is the share of the machine's CPU time the hypervisor
	// took from the open loop's start to "done": how contended the
	// machine was during the run.
	StealShare float64
	// CPU is this process's CPU time over the run.
	CPU time.Duration
}

// cpuMark is the SUT's CPU time when Sent tuples had been sent.
type cpuMark struct {
	Sent int
	CPU  time.Duration
}

// PhaseThroughput is the saturation phase's tuples per second, first send
// to "done" (drain included).
func (r *LoadResult) PhaseThroughput() float64 {
	return ratio(float64(r.Sent-r.OpenSent), r.Done.Sub(r.SatStart).Seconds())
}

// cpuPerK is the SUT's CPU ms per 1000 tuples in each cpuChunk slice of the
// measured open loop.
func (r *LoadResult) cpuPerK() []float64 {
	var out []float64
	for i := 1; i < len(r.CPUMarks); i++ {
		a, b := r.CPUMarks[i-1], r.CPUMarks[i]
		if b.Sent > a.Sent {
			out = append(out, ms(b.CPU-a.CPU)/(float64(b.Sent-a.Sent)/1000))
		}
	}
	return out
}

// satRates is the SUT's processing rate, tuples/s, in successive slices of
// at least satChunk of the saturation phase. The SUT has taken in a
// window's closing tuple once the window's last alert line is read, so a
// slice's rate is the advance of the closing-tuple index over the slice,
// over its length. Windows closed by tuples of the open loop are skipped.
func satRates(in *Input, obs []winObs, from int) []float64 {
	r := in.Ref
	n, nWin := len(in.Msgs), len(r.WinEnd)
	var out []float64
	c0, t0 := -1, time.Time{}
	for _, o := range obs {
		c := o.Win/nWin*n + r.WinClose[o.Win%nWin]
		if c < from {
			continue
		}
		if c0 < 0 {
			c0, t0 = c, o.At
			continue
		}
		if d := o.At.Sub(t0); d >= satChunk {
			out = append(out, float64(c-c0)/d.Seconds())
			c0, t0 = c, o.At
		}
	}
	return out
}

// due is tuple i's scheduled send time in the open-loop phase.
func due(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// latSample is one window's alert latency.
type latSample struct {
	End int64   // window end (t_ms of its alerts)
	MS  float64 // closing tuple's due time → last alert line read
}

// latencies matches every window whose closing tuple is one of the
// measured open-loop tuples [from, to) to that tuple's due time, returning
// one sample per window. Windows closed in the warm-up or by a
// saturation-phase tuple (which had no schedule) are skipped.
func latencies(in *Input, obs []winObs, start time.Time, from, to int, rate float64) []latSample {
	r := in.Ref
	n, nWin := len(in.Msgs), len(r.WinEnd)
	var out []latSample
	for _, o := range obs {
		lap, w := o.Win/nWin, o.Win%nWin
		closer := lap*n + r.WinClose[w]
		if closer < from || closer >= to {
			continue
		}
		out = append(out, latSample{
			End: r.WinEnd[w] + int64(lap)*in.Shift,
			MS:  ms(o.At.Sub(due(start, closer, rate))),
		})
	}
	return out
}

// cpuSelf is this process's user+system CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runLoad drives one run against the SUT at addr: subscribe, then the
// open-loop phase at rate, the saturation phase, "end", and "done". Every
// alert line is checked against the reference as it arrives. sutCPU reads
// the SUT's CPU time for the open loop's CPU marks; hook runs at the phase
// boundaries "sat" and "done" (for /statsz and /proc snapshots).
func runLoad(addr string, in *Input, rate float64, ph Phases, sutCPU func() (time.Duration, error), hook func(phase string) error) (*LoadResult, error) {
	res := &LoadResult{}
	cpu0 := cpuSelf()

	sub, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("subscribe dial: %w", err)
	}
	defer sub.Close()
	subR := bufio.NewReaderSize(sub, 1<<16)
	if _, err := sub.Write([]byte("{\"kind\":\"sub\"}\n")); err != nil {
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	ack, err := subR.ReadBytes('\n')
	if err != nil || !bytes.HasPrefix(ack, []byte(`{"kind":"ok"`)) {
		return nil, fmt.Errorf("subscribe ack %q: %v", ack, err)
	}
	ing, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ingest dial: %w", err)
	}
	defer ing.Close()

	// Ingest replies: "err" per rejected tuple, "ok" for the end.
	endAck := make(chan error, 1)
	rejected := make(chan int, 1)
	go func() {
		r := bufio.NewReader(ing)
		n := 0
		defer func() { rejected <- n }()
		for {
			line, err := r.ReadBytes('\n')
			if err != nil {
				endAck <- fmt.Errorf("ingest replies: %w", err)
				return
			}
			var m server.Msg
			if err := json.Unmarshal(line, &m); err != nil {
				endAck <- fmt.Errorf("ingest reply %q: %w", line, err)
				return
			}
			switch m.Kind {
			case server.KindErr:
				n++
			case server.KindOK:
				endAck <- nil
				return
			}
		}
	}()

	// Alert reader: check each line as it arrives, note window completions.
	// processed is the index of the tuple that closed the latest completed
	// window: the SUT has taken in at least that much of the input.
	var processed atomic.Int64
	done := make(chan error, 1)
	go func() {
		ref := in.Ref
		nRef, nWin := len(ref.Lines), len(ref.WinEnd)
		var exp []byte
		for {
			line, err := subR.ReadSlice('\n')
			if errors.Is(err, bufio.ErrBufferFull) {
				rest, rerr := subR.ReadBytes('\n')
				line, err = append(append([]byte(nil), line...), rest...), rerr
			}
			if err != nil {
				if err == io.EOF {
					err = errors.New("alert stream closed before done")
				}
				done <- err
				return
			}
			switch {
			case bytes.HasPrefix(line, []byte(`{"kind":"alert"`)):
				k := res.Received
				res.Received++
				exp = in.expected(exp[:0], k)
				if !bytes.Equal(exp, line) {
					if res.Mismatched == 0 {
						res.FirstMismatch = fmt.Sprintf("alert %d:\n  want %s  got  %s", k, exp, line)
					}
					res.Mismatched++
				}
				if j := k % nRef; ref.WinLast[ref.Win[j]] == j {
					w := ref.Win[j]
					res.Windows = append(res.Windows, winObs{Win: k/nRef*nWin + w, At: time.Now()})
					processed.Store(int64(k/nRef*len(in.Msgs) + ref.WinClose[w]))
				}
			case bytes.HasPrefix(line, []byte(`{"kind":"done"`)):
				res.Done = time.Now()
				var m server.Msg
				if err := json.Unmarshal(line, &m); err != nil {
					done <- fmt.Errorf("done line %q: %w", line, err)
					return
				}
				res.DoneAlerts = m.AlertCount()
				done <- nil
				return
			default:
				res.Other++
			}
		}
	}()

	if _, err := ing.Write(in.Schema.Frame()); err != nil {
		return nil, fmt.Errorf("send schema: %w", err)
	}
	next := 0
	var buf []byte
	var scratch []server.BwTuple
	send := func(upto int) error {
		buf, scratch = in.appendFrames(buf[:0], scratch, next, upto)
		next = upto
		ing.SetWriteDeadline(time.Now().Add(stallLimit))
		_, err := ing.Write(buf)
		return err
	}

	mark := func() error {
		c, err := sutCPU()
		res.CPUMarks = append(res.CPUMarks, cpuMark{Sent: next, CPU: c})
		return err
	}
	steal0, total0 := hostTicks()
	start := time.Now()
	res.OpenStart = start
	res.WarmSent = int(math.Ceil(ph.Warm.Seconds() * rate))
	nextMark := ph.Warm
	for {
		now := time.Now()
		el := now.Sub(start)
		if el >= ph.Warm+ph.Open {
			break
		}
		if el >= nextMark {
			if err := mark(); err != nil {
				return nil, err
			}
			nextMark += cpuChunk
		}
		upto := int(el.Seconds()*rate) + 1
		if upto <= next {
			time.Sleep(due(start, next, rate).Sub(now))
			continue
		}
		if next >= res.WarmSent {
			res.Late = append(res.Late, ms(now.Sub(due(start, next, rate))))
		}
		if err := send(upto); err != nil {
			return nil, fmt.Errorf("open-loop send: %w", err)
		}
	}
	res.OpenSent = next
	if err := mark(); err != nil {
		return nil, err
	}

	if err := hook("sat"); err != nil {
		return nil, err
	}
	n := len(in.Msgs)
	res.SatStart = time.Now()
	for time.Since(res.SatStart) < ph.Sat || next%n != 0 {
		// Keep at most a lap in flight. Loopback TCP buffers alone hold
		// megabytes, seconds of input on a slow workload; unbounded, the
		// phase would end long after Sat, draining them.
		for waited := time.Now(); int64(next)-processed.Load() > int64(n); {
			if time.Since(waited) > stallLimit {
				return nil, fmt.Errorf("no alert progress for %v", stallLimit)
			}
			time.Sleep(100 * time.Microsecond)
		}
		upto := next + 1024
		if lapEnd := (next/n + 1) * n; upto > lapEnd {
			upto = lapEnd
		}
		if err := send(upto); err != nil {
			return nil, fmt.Errorf("saturation send: %w", err)
		}
	}
	res.Sent = next
	res.Expected = next / n * len(in.Ref.Lines)
	if _, err := ing.Write([]byte("{\"kind\":\"end\"}\n")); err != nil {
		return nil, fmt.Errorf("send end: %w", err)
	}
	timeout := time.After(stallLimit)
	select {
	case err := <-endAck:
		if err != nil {
			return nil, err
		}
	case <-timeout:
		return nil, errors.New("end not acknowledged")
	}
	res.Rejected = <-rejected
	select {
	case err := <-done:
		if err != nil {
			return nil, err
		}
	case <-timeout:
		return nil, errors.New("no done line")
	}
	steal1, total1 := hostTicks()
	res.StealShare = ratio(float64(steal1-steal0), float64(total1-total0))
	if err := hook("done"); err != nil {
		return nil, err
	}
	res.CPU = cpuSelf() - cpu0
	return res, nil
}
