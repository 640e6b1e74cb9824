package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/rfid"
	"repro/internal/server"
	"repro/internal/stream"
)

// Trace shape: 3000 tags scanned over 1500 reader events (500 ms apart),
// about 21k location tuples and 750 s of event time per lap.
const (
	traceTags   = 3000
	traceEvents = 1500
)

// Input is one seed's prepared load. The generator replays lap 0's tuples
// in laps, shifting event time by Shift per lap; the reference holds lap
// 0's alert lines, which the same shift turns into every later lap's.
type Input struct {
	// Msgs are lap 0's wire tuples in send order (t_ms nondecreasing).
	Msgs []server.Msg
	// Shift is the event-time offset between consecutive laps, in ms.
	Shift int64
	Ref   *Reference
	// Schema and Wire are Msgs as a client's bwire encoder sends them:
	// one interned schema and the decoded tuples, which the generator
	// re-encodes with shifted t_ms at a fraction of the encoder's cost.
	Schema *server.BwSchema
	Wire   []server.BwTuple
}

// encodeWire encodes lap 0 with the client encoder and keeps the decoded
// tuples.
func (in *Input) encodeWire() error {
	bb := server.NewBwBatcher()
	for _, m := range in.Msgs {
		if err := bb.Add(m); err != nil {
			return err
		}
	}
	wr := server.NewWireReader(bytes.NewReader(bb.Take()), 1<<20)
	dec := server.NewBwDecoder()
	for {
		line, fr, err := wr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch {
		case line != nil:
			return errors.New("client encoder wrote a JSON line")
		case fr.Kind == server.BwSchemaFrame:
			if in.Schema != nil {
				return errors.New("trace tuples have more than one shape")
			}
			if in.Schema, err = dec.AddSchema(fr.Payload); err != nil {
				return err
			}
		case fr.Kind == server.BwTuples:
			bts, err := dec.DecodeTuples(fr.Payload)
			if err != nil {
				return err
			}
			for _, bt := range bts {
				bt.Keys = append([]int64(nil), bt.Keys...)
				bt.Attrs = append([]server.Attr(nil), bt.Attrs...)
				in.Wire = append(in.Wire, bt)
			}
		}
	}
	if len(in.Wire) != len(in.Msgs) {
		return fmt.Errorf("encoded %d of %d tuples", len(in.Wire), len(in.Msgs))
	}
	return nil
}

// appendFrames appends the bwire TUPLES frames for tuples [from, to) of
// the endless lap sequence to dst.
func (in *Input) appendFrames(dst []byte, scratch []server.BwTuple, from, to int) ([]byte, []server.BwTuple) {
	n := len(in.Wire)
	for from < to {
		end := min(to, from+server.BwBatch)
		scratch = scratch[:0]
		for i := from; i < end; i++ {
			bt := in.Wire[i%n]
			bt.T += int64(i/n) * in.Shift
			scratch = append(scratch, bt)
		}
		dst = append(dst, server.EncodeTuplesFrame(in.Schema, scratch)...)
		from = end
	}
	return dst, scratch
}

// Reference is lap 0's offline alert stream, indexed for the checker and
// the latency matcher.
type Reference struct {
	Lines [][]byte
	// TMS is each line's t_ms; numAt/numEnd bracket its digits in the line.
	TMS    []int64
	numAt  []int
	numEnd []int
	// Win is each line's window index.
	Win []int
	// WinEnd is each window's end (its alerts' t_ms), WinLast the index of
	// its last line, and WinClose the lap index of the tuple that closes it:
	// the first tuple at or past the window end, or len(Msgs) — the next
	// lap's first tuple — for windows the lap's own tuples never close.
	WinEnd   []int64
	WinLast  []int
	WinClose []int
}

// traceMsgs runs the RFID T-operator over the seed's warehouse trace — the
// same warehouse, trace and transformer cmd/rfidtrace builds — and encodes
// every location tuple as a streamd wire tuple.
func traceMsgs(seed int64, tags, events int) []server.Msg {
	w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: tags, Seed: seed, MoveProb: -1})
	trace := rfid.GenerateTrace(w, rfid.Reader{}, rfid.TraceConfig{Events: events, Seed: seed + 1})
	tx := rfid.NewTransformer(w, rfid.SensingConfig{}, rfid.TransformerConfig{
		Particles: 50, UseIndex: true, NegativeEvidence: true, Seed: seed + 2,
	})
	var msgs []server.Msg
	for _, ev := range trace.Events {
		for _, lt := range tx.Process(ev) {
			msgs = append(msgs, server.Msg{
				Kind:   server.KindTuple,
				Source: "locations",
				T:      int64(lt.T),
				Keys:   map[string]int64{"tag": lt.TagID},
				Attrs: map[string]server.Attr{
					"x":      server.DistAttr(lt.X),
					"y":      server.DistAttr(lt.Y),
					"z":      server.DistAttr(lt.Z),
					"weight": server.PointAttr(w.Weight(lt.TagID)),
				},
			})
		}
	}
	return msgs
}

// lapShift is the event-time offset between laps: a whole number of window
// steps (so every lap's windows sit on lap 0's grid, which starts at the
// first tuple) that clears the lap's span, plus one Range (so no window
// holds tuples of two laps).
func lapShift(span int64, w Workload) int64 {
	step := w.step()
	return (span/step+1)*step + int64(w.Spec().Duration)
}

// lapMsg returns tuple i of the endless lap sequence.
func (in *Input) lapMsg(i int) server.Msg {
	n := len(in.Msgs)
	m := in.Msgs[i%n]
	m.T += int64(i/n) * in.Shift
	return m
}

// buildInput prepares a seed's load for workload w and proves the lap
// construction: lap 1's reference alerts, computed after a full lap of
// history, must equal lap 0's byte for byte with t_ms shifted.
func buildInput(w Workload, seed int64) (*Input, error) {
	return newInput(w, traceMsgs(seed, traceTags, traceEvents))
}

func newInput(w Workload, msgs []server.Msg) (*Input, error) {
	if len(msgs) == 0 {
		return nil, errors.New("trace produced no tuples")
	}
	for i := 1; i < len(msgs); i++ {
		if msgs[i].T < msgs[i-1].T {
			return nil, fmt.Errorf("trace t_ms decreases at tuple %d", i)
		}
	}
	in := &Input{Msgs: msgs, Shift: lapShift(msgs[len(msgs)-1].T-msgs[0].T, w)}
	if err := in.encodeWire(); err != nil {
		return nil, err
	}
	laps, err := referenceLaps(w, in, 2)
	if err != nil {
		return nil, err
	}
	if err := sameShifted(laps[0], laps[1], in.Shift); err != nil {
		return nil, fmt.Errorf("lap reuse not proven: %w", err)
	}
	in.Ref, err = indexReference(laps[0], msgs)
	return in, err
}

// referenceLaps pushes the given number of laps through the workload's
// reference plan and splits the alert lines by lap.
func referenceLaps(w Workload, in *Input, laps int) ([][][]byte, error) {
	plan := w.ReferencePlan()
	n := len(in.Msgs)
	byLap := make([][][]byte, laps)
	collect := func(ts []*stream.Tuple) error {
		for _, t := range ts {
			m, err := server.AlertMsg(t)
			if err != nil {
				return err
			}
			line, err := server.EncodeLine(m)
			if err != nil {
				return err
			}
			lap := int((m.T - in.Msgs[0].T) / in.Shift)
			if lap < 0 || lap >= laps {
				return fmt.Errorf("reference alert t_ms %d outside the %d laps", m.T, laps)
			}
			byLap[lap] = append(byLap[lap], line)
		}
		return nil
	}
	for i := 0; i < laps*n; i++ {
		u, err := server.ParseTuple(in.lapMsg(i))
		if err != nil {
			return nil, fmt.Errorf("reference tuple %d: %w", i, err)
		}
		plan.Push("locations", u)
		if err := collect(plan.Results()); err != nil {
			return nil, err
		}
	}
	if err := collect(plan.Close()); err != nil {
		return nil, err
	}
	if len(byLap[0]) == 0 {
		return nil, errors.New("reference lap produced no alerts")
	}
	return byLap, nil
}

// tmsSpan locates the t_ms digits in an alert line.
func tmsSpan(line []byte) (at, end int, v int64, err error) {
	const key = `"t_ms":`
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return 0, 0, 0, fmt.Errorf("alert line without t_ms: %s", line)
	}
	at = i + len(key)
	end = at
	for end < len(line) && (line[end] == '-' || line[end] >= '0' && line[end] <= '9') {
		end++
	}
	v, err = strconv.ParseInt(string(line[at:end]), 10, 64)
	return at, end, v, err
}

// shiftLine appends line with its t_ms moved by delta to dst.
func shiftLine(dst, line []byte, at, end int, tms, delta int64) []byte {
	dst = append(dst, line[:at]...)
	dst = strconv.AppendInt(dst, tms+delta, 10)
	return append(dst, line[end:]...)
}

// sameShifted checks that lines b equal lines a with t_ms moved by delta.
func sameShifted(a, b [][]byte, delta int64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d alerts vs %d", len(a), len(b))
	}
	var buf []byte
	for i := range a {
		at, end, v, err := tmsSpan(a[i])
		if err != nil {
			return err
		}
		buf = shiftLine(buf[:0], a[i], at, end, v, delta)
		if !bytes.Equal(buf, b[i]) {
			return fmt.Errorf("alert %d differs:\n  want %s  got  %s", i, buf, b[i])
		}
	}
	return nil
}

// indexReference builds the checker's and latency matcher's view of lap
// 0's alert lines.
func indexReference(lines [][]byte, msgs []server.Msg) (*Reference, error) {
	r := &Reference{Lines: lines}
	for i, line := range lines {
		at, end, v, err := tmsSpan(line)
		if err != nil {
			return nil, err
		}
		if i > 0 && v < r.TMS[i-1] {
			return nil, fmt.Errorf("reference alert %d goes back in time", i)
		}
		r.TMS = append(r.TMS, v)
		r.numAt = append(r.numAt, at)
		r.numEnd = append(r.numEnd, end)
		if len(r.WinEnd) == 0 || r.WinEnd[len(r.WinEnd)-1] != v {
			r.WinEnd = append(r.WinEnd, v)
			r.WinLast = append(r.WinLast, i)
			r.WinClose = append(r.WinClose, closingTuple(msgs, v))
		}
		r.Win = append(r.Win, len(r.WinEnd)-1)
		r.WinLast[len(r.WinLast)-1] = i
	}
	return r, nil
}

// closingTuple is the index of the first tuple at or past window end e —
// the arrival that makes the window clock close the window — or len(msgs)
// when the lap ends first and the next lap's first tuple closes it.
func closingTuple(msgs []server.Msg, e int64) int {
	return sort.Search(len(msgs), func(i int) bool { return msgs[i].T >= e })
}

// expected appends the k-th alert line of the endless lap sequence to dst.
func (in *Input) expected(dst []byte, k int) []byte {
	r := in.Ref
	n := len(r.Lines)
	j := k % n
	return shiftLine(dst, r.Lines[j], r.numAt[j], r.numEnd[j], r.TMS[j], int64(k/n)*in.Shift)
}
