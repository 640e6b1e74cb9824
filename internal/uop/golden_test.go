package uop

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rfid"
	"repro/internal/snap"
	"repro/internal/stream"
)

// TestQ1AlertsMatchGolden pins the gated-sum alert bytes against a golden
// file recorded before the aggregation spine was generalized (PR 10): the
// refactored sum path must emit byte-identical (%.17g) alerts to the
// pre-refactor code on the same seeded trace. Regenerate intentionally with
// UPDATE_GOLDEN=1 — never to paper over a diff.
func TestQ1AlertsMatchGolden(t *testing.T) {
	lts, w := seededTrace(t, 60, 400, 0)
	golden := filepath.Join("testdata", "q1_alerts_pr9.golden")
	var got string
	for _, strat := range []core.Strategy{core.CFApprox, core.CFInvert} {
		cfg := Q1Config{
			WindowMS:     5 * stream.Second,
			SlideMS:      1 * stream.Second,
			ThresholdLbs: 120,
			AreaFt:       10,
			Strategy:     strat,
			MinAlertProb: 0.3,
		}
		got += strat.String() + "\n" + formatQ1(RunQ1(lts, w, cfg))
	}
	if got == "" {
		t.Fatal("no alerts produced; trace too light for a golden pin")
	}
	checkGolden(t, golden, got)
}

// TestQ3AlertsMatchGolden pins the streaming-quantile alert bytes against a
// golden recorded before the exact order-statistic tabulation was made
// event-driven: tumbling and 1 s sliding windows, plus a MaxExact 4 arm that
// sends most groups down the sketch estimator. Each arm also runs at
// Shards(2), which must reproduce the unsharded bytes, so the golden pins
// both plans without storing the text twice. Each alert line carries its
// mean and variance at %.17g and an FNV-1a digest of the result
// distribution's snapshot encoding, so every histogram bin is held to the
// bit. Regenerate intentionally with UPDATE_GOLDEN=1 — never to paper over
// a diff.
func TestQ3AlertsMatchGolden(t *testing.T) {
	lts, w := seededTrace(t, 60, 400, 0)
	golden := filepath.Join("testdata", "q3_alerts_pr11.golden")
	arms := []struct {
		name     string
		slide    stream.Time
		maxExact int
	}{
		{"tumbling", 0, 0},
		{"sliding", stream.Second, 0},
		{"tumbling/max-exact=4", 0, 4},
	}
	var got strings.Builder
	for _, arm := range arms {
		var outs [2]string
		for i, shards := range []int{0, 2} {
			outs[i] = formatQ3Golden(t, BuildQ3(Q3Config{
				WindowMS:     5 * stream.Second,
				SlideMS:      arm.slide,
				Shards:       shards,
				ThresholdLbs: 25,
				AreaFt:       10,
				MinAlertProb: 0.5,
				Quantile:     core.QuantileOptions{MaxExact: arm.maxExact},
			}), lts, w)
		}
		if outs[0] == "" {
			t.Fatalf("%s: no alerts produced; trace too light for a golden pin", arm.name)
		}
		if outs[1] != outs[0] {
			t.Errorf("%s: Shards(2) alerts diverge from the unsharded plan\ngot:\n%s\nwant:\n%s", arm.name, outs[1], outs[0])
		}
		got.WriteString(arm.name + "\n" + outs[0])
	}
	checkGolden(t, golden, got.String())
}

// formatQ3Golden pushes the trace through q and renders each alert as its
// formatUAlerts line extended with a digest of the encoded distribution.
func formatQ3Golden(t *testing.T, q *Query, lts []rfid.LocationTuple, w *rfid.Warehouse) string {
	t.Helper()
	c := q.Compile()
	for _, lt := range lts {
		c.Push("locations", LocationUTuple(lt, w))
	}
	var b strings.Builder
	for _, a := range c.Close() {
		line := strings.TrimSuffix(formatUAlerts([]*stream.Tuple{a}), "\n")
		var sw snap.Writer
		if err := dist.Encode(&sw, core.Unwrap(a).Attr("weight")); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(sw.Bytes())
		fmt.Fprintf(&b, "%s|dist=%016x\n", line, h.Sum64())
	}
	return b.String()
}

// checkGolden compares got with the golden file, or rewrites the file when
// UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to record): %v", err)
	}
	if got != string(want) {
		t.Errorf("alerts diverge from golden %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
