package router

import (
	"testing"
	"time"
)

// TestCheckpointLosesRaceToEnd forces the interleaving behind the
// intermittent "epoch ended before checkpoint ran" worker errors: a
// checkpoint round looks up the running epoch, and the stream's end lands
// before the round pauses routing. The round must give up without reaching
// the workers — no worker answers it with an error — and the drained stream
// must still match the offline reference.
func TestCheckpointLosesRaceToEnd(t *testing.T) {
	msgs := wireTrace(t, 30, 200)
	cfg := clusterQ1Cfg()
	ref := offlineAlertLines(t, msgs, cfg)
	cl := startCluster(t, 2, cfg, func(c *Config) { c.Replicas = 2 })
	sub := subscribe(t, cl.rt)
	ingest := dialRouter(t, cl.rt)
	for _, m := range msgs {
		ingest.send(m)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ep := cl.rt.epoch(); ep != nil && ep.routedSeq.Load() == uint64(len(msgs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router did not accept the whole trace")
		}
		time.Sleep(time.Millisecond)
	}

	endErr := make(chan error, 1)
	cl.rt.beforeCut = func() { endErr <- cl.rt.endStream() }
	if err := cl.rt.clusterCheckpoint(); err == nil {
		t.Fatal("a checkpoint round ran on an ended stream")
	}
	if err := <-endErr; err != nil {
		t.Fatalf("end: %v", err)
	}
	diffLines(t, ref, collectAlerts(t, sub), "end racing a checkpoint")
	if n := cl.rt.Stats().WorkerErrors; n != 0 {
		t.Errorf("workers answered %d control lines with errors, want 0", n)
	}
}
