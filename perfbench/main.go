// Command perfbench is the repository benchmark: open-loop RFID alert
// serving against streamd on three workloads, with a correctness gate on
// every alert and an optional traced run that breaks the time down by layer.
// README.md in this directory defines every metric.
//
// Run it from the repository root through run.sh, which builds streamd and
// this program from the checked-out tree first:
//
//	bash perfbench/run.sh --workload q1-tumbling --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result: a JSON object with the
// keys correct, attempted, failed and metrics (the end-to-end metrics, or
// with --trace 1 the per-layer ones). The exit code is non-zero on any
// failed tuple or alert, or when the run could not be made.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// warmUp is the unmeasured start of the open-loop phase.
const warmUp = 2 * time.Second

// setupLaunches is how many times a run launches the SUT to time its
// set-up; the last launch serves the run.
const setupLaunches = 21

func main() {
	workload := flag.String("workload", "", "q1-tumbling, quantile-sliding or q1-cluster")
	seed := flag.Int64("seed", 1, "input seed: the RFID trace and everything derived from it")
	seconds := flag.Int("seconds", 25, "measured seconds per run: open loop half (after a 2 s warm-up), saturation half")
	traceFlag := flag.Int("trace", 0, "1 adds the traced in-process run and the layer pass, and reports per-layer metrics")
	streamd := flag.String("streamd", ".bench_build/bin/streamd", "streamd binary built from the checked-out tree")
	outDir := flag.String("out", ".bench_build", "directory for SUT logs and trace files")
	flag.Parse()

	// The generator needs one thread; a second would only spin for work on
	// the cores the SUT runs on. The traced run raises it for the
	// in-process SUT.
	runtime.GOMAXPROCS(1)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		fmt.Fprintln(os.Stderr, "perfbench: interrupted")
		os.Exit(130)
	}()

	res, err := run(*workload, *seed, *seconds, *traceFlag == 1, *streamd, *outDir)
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the final stdout line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func run(name string, seed int64, seconds int, traced bool, streamd, outDir string) (res *Result, err error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if _, err := os.Stat(streamd); err != nil {
		return nil, fmt.Errorf("streamd binary: %w (run through perfbench/run.sh)", err)
	}
	if err := os.MkdirAll(filepath.Join(outDir, "logs"), 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(outDir, "logs", fmt.Sprintf("%s-seed%d.log", w.Name, seed))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	// A failed run shows the SUT's last log lines next to its error.
	defer func() {
		if err != nil || !res.Correct {
			printLogTail(logPath, 20)
		}
	}()
	ph := Phases{
		Warm: warmUp,
		Open: time.Duration(seconds) * time.Second / 2,
		Sat:  time.Duration(seconds) * time.Second / 2,
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", w.Name, seed, seconds, traced)

	prep := time.Now()
	in, err := buildInput(w, seed)
	if err != nil {
		return nil, fmt.Errorf("prepare input: %w", err)
	}
	fmt.Printf("input: %d tuples, %d alerts and %d alerting windows per lap; laps %d ms apart; lap 1 proven equal to lap 0 shifted; prepared in %.1f s\n",
		len(in.Msgs), len(in.Ref.Lines), len(in.Ref.WinEnd), in.Shift, time.Since(prep).Seconds())

	e2e, err := measureProcesses(w, in, ph, streamd, logf)
	if err != nil {
		return nil, err
	}
	tb := testbed(w, seed, e2e)
	rec, _ := json.Marshal(tb)
	fmt.Printf("testbed: %s\n", rec)
	fmt.Println("end-to-end, streamd processes (untraced):")
	e2e.print()

	res = &Result{
		Correct:   e2e.Failed == 0,
		Attempted: e2e.Attempted,
		Failed:    e2e.Failed,
	}
	if e2e.Failed > 0 {
		fmt.Printf("FAILED: %s\n", e2e.failure)
	}
	if !traced {
		res.Metrics = e2e.endToEnd()
		return res, nil
	}

	// The in-process SUT gets the cores streamd would.
	runtime.GOMAXPROCS(runtime.NumCPU())
	tr, err := measureTraced(w, in, ph)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	fmt.Println("end-to-end, in-process SUT with every box timed (traced):")
	tr.E2E.print()
	printBeside(e2e, tr.E2E)
	res.Attempted += tr.E2E.Attempted
	res.Failed += tr.E2E.Failed
	res.Correct = res.Failed == 0
	if tr.E2E.Failed > 0 {
		fmt.Printf("FAILED (traced): %s\n", tr.E2E.failure)
	}

	layers, err := layerPass(w, in)
	if err != nil {
		return nil, fmt.Errorf("layer pass: %w", err)
	}
	res.Metrics = perLayer(e2e, tr, layers)
	printBoxes(tr.Boxes)
	fmt.Println("per-layer:")
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("  %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	path := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.json", w.Name, seed))
	if err := writeTrace(path, tr); err != nil {
		return nil, err
	}
	fmt.Printf("trace spans: %s\n", path)
	return res, nil
}

// printLogTail copies the last n lines of the SUT log at path to stderr.
func printLogTail(path string, n int) {
	b, err := os.ReadFile(path)
	if err != nil {
		return
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	fmt.Fprintf(os.Stderr, "perfbench: last lines of %s:\n", path)
	for _, l := range lines {
		fmt.Fprintln(os.Stderr, "  "+l)
	}
}
