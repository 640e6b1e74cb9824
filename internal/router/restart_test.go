package router

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/uop"
)

// The tests in this file pin router durability: a router SIGKILLed
// mid-stream (Crash: no goodbye, no final persist) and restarted over the
// same Store must resume the stream so that the subscriber-visible alert
// bytes — pre-crash suffix plus post-restart resume — exactly equal the
// offline reference. The resume contract is the sub ack: Seq says which
// suffix of its input the client must resend, Alerts how many replayed
// alert lines to skip.

// drainAlerts reads subscriber lines until the connection dies (router
// crash) or "done" arrives, tolerating the error — unlike collectAlerts,
// which fails the test on any read problem.
func drainAlerts(t *testing.T, sub *testClient, out chan<- []string) {
	var got []string
	defer func() { out <- got }()
	for {
		sub.conn.SetReadDeadline(time.Now().Add(60 * time.Second))
		line, err := sub.r.ReadString('\n')
		if err != nil {
			return
		}
		var m server.Msg
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Errorf("bad subscriber line %q: %v", line, err)
			return
		}
		if m.Kind == server.KindAlert {
			got = append(got, line)
		}
		if m.Kind == server.KindDone {
			return
		}
	}
}

func TestRouterRestartByteIdentical(t *testing.T) {
	base := wireTrace(t, 40, 300)
	// Straggler displacement rides every case: recovery must preserve the
	// clock's handling of late tuples too.
	msgs := append([]server.Msg(nil), base...)
	for i := 7; i < len(msgs); i += 11 {
		if msgs[i].T -= 6000; msgs[i].T < 0 {
			msgs[i].T = 0
		}
	}
	cases := []struct {
		name string
		mut  func(*uop.Q1Config)
	}{
		{"tumbling", nil},
		{"sliding", func(c *uop.Q1Config) { c.SlideMS = 1500 * stream.Millisecond }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := clusterQ1Cfg()
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			ref := offlineAlertLines(t, msgs, cfg)
			if len(ref) == 0 {
				t.Fatal("offline reference produced no alerts")
			}
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					store, err := server.NewFileStore(t.TempDir())
					if err != nil {
						t.Fatalf("file store: %v", err)
					}
					cl := startCluster(t, workers, cfg, func(c *Config) {
						c.Store = store
					})
					sub1 := subscribe(t, cl.rt)
					got1 := make(chan []string, 1)
					go drainAlerts(t, sub1, got1)
					ingest := dialRouter(t, cl.rt)

					// ~60% of the stream, a checkpoint (which persists the
					// router blob), then more tuples the crash will eat.
					cut := len(msgs) * 6 / 10
					for _, m := range msgs[:cut] {
						ingest.send(m)
					}
					ingest.send(server.Msg{Kind: server.KindCkpt})
					if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
						t.Fatalf("ckpt: got %+v", m)
					}
					for _, m := range msgs[cut : cut+len(msgs)/5] {
						ingest.send(m)
					}

					// kill -9: nothing else is persisted, the blob survives.
					cl.rt.Crash()
					pre := <-got1

					rt2, err := New(Config{
						Addr:    "127.0.0.1:0",
						Workers: workerAddrs(cl),
						Plan:    routerPlan(t, cfg),
						Store:   store,
					})
					if err != nil {
						t.Fatalf("restart: %v", err)
					}
					t.Cleanup(func() { rt2.Close() })

					// The resume contract rides the sub ack.
					sub2 := dialRouter(t, rt2)
					sub2.send(server.Msg{Kind: server.KindSub})
					ack := sub2.recv(10 * time.Second)
					if ack.Kind != server.KindOK {
						t.Fatalf("resubscribe: got %+v", ack)
					}
					if ack.Seq == 0 || ack.Seq > uint64(cut) {
						t.Fatalf("resume seq %d, want in (0, %d]: the blob should cover the pre-checkpoint prefix", ack.Seq, cut)
					}
					if ack.AlertCount() > uint64(len(pre)) {
						t.Fatalf("recovered router claims %d alerts already emitted; first subscriber saw only %d", ack.AlertCount(), len(pre))
					}

					in2 := dialRouter(t, rt2)
					for _, m := range msgs[ack.Seq:] {
						in2.send(m)
					}
					in2.send(server.Msg{Kind: server.KindEnd})
					if m := in2.recv(60 * time.Second); m.Kind != server.KindOK {
						t.Fatalf("end after restart: got %+v", m)
					}
					got2 := make(chan []string, 1)
					go drainAlerts(t, sub2, got2)
					post := <-got2

					// The recovered router re-emits alerts [ack.Alerts,
					// len(pre)) — the ones the first subscriber already saw
					// past the cut. Skip them; the rest must butt-join.
					dup := len(pre) - int(ack.AlertCount())
					if dup > len(post) {
						t.Fatalf("restart replayed %d alerts, fewer than the %d duplicates to skip", len(post), dup)
					}
					combined := append(append([]string(nil), pre...), post[dup:]...)
					if strings.Join(combined, "") != strings.Join(ref, "") {
						t.Errorf("alerts diverge across restart:\nref (%d):\n%s\ngot (%d):\n%s",
							len(ref), strings.Join(ref, ""), len(combined), strings.Join(combined, ""))
					}
				})
			}
		})
	}
}

// TestRouterRestartCleanStoreIsFresh: a finished stream deletes its blob, so
// a restart over the same store starts epoch 0 fresh instead of resurrecting
// the drained epoch.
func TestRouterRestartCleanStoreIsFresh(t *testing.T) {
	msgs := wireTrace(t, 30, 200)
	cfg := clusterQ1Cfg()
	ref := offlineAlertLines(t, msgs, cfg)
	store, err := server.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cl := startCluster(t, 2, cfg, func(c *Config) { c.Store = store })
	sub := subscribe(t, cl.rt)
	ingest := dialRouter(t, cl.rt)
	half := len(msgs) / 2
	for _, m := range msgs[:half] {
		ingest.send(m)
	}
	ingest.send(server.Msg{Kind: server.KindCkpt})
	if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("ckpt: got %+v", m)
	}
	for _, m := range msgs[half:] {
		ingest.send(m)
	}
	ingest.send(server.Msg{Kind: server.KindEnd})
	if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("end: got %+v", m)
	}
	diffLines(t, ref, collectAlerts(t, sub), "pre-restart stream")

	// The drain deletes the blob asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for {
		epochs, err := store.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(epochs) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blob for drained epoch still present: %v", epochs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cl.rt.Close()

	rt2, err := New(Config{
		Addr:    "127.0.0.1:0",
		Workers: workerAddrs(cl),
		Plan:    routerPlan(t, cfg),
		Store:   store,
	})
	if err != nil {
		t.Fatalf("restart over clean store: %v", err)
	}
	t.Cleanup(func() { rt2.Close() })
	sub2 := dialRouter(t, rt2)
	sub2.send(server.Msg{Kind: server.KindSub})
	ack := sub2.recv(10 * time.Second)
	if ack.Kind != server.KindOK || ack.Seq != 0 || ack.AlertCount() != 0 {
		t.Fatalf("fresh restart ack = %+v, want plain ok with no resume state", ack)
	}
	in2 := dialRouter(t, rt2)
	for _, m := range msgs {
		in2.send(m)
	}
	in2.send(server.Msg{Kind: server.KindEnd})
	if m := in2.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("end: got %+v", m)
	}
	diffLines(t, ref, collectAlerts(t, sub2), "post-restart stream")
}

func workerAddrs(cl *cluster) []string {
	var addrs []string
	for _, w := range cl.workers {
		addrs = append(addrs, w.Addr().String())
	}
	return addrs
}

func routerPlan(t *testing.T, cfg uop.Q1Config) *uop.ClusterPlan {
	t.Helper()
	plan, err := uop.BuildQ1(cfg).Cluster()
	if err != nil {
		t.Fatalf("Cluster(): %v", err)
	}
	return plan
}

// TestRestartDropsSupersededLinkInput pins the interleaving behind the
// restart divergence: a link the crashed router opened to a worker still
// delivers buffered input after the recovering router has reset the worker.
// That input predates the rewind and must be dropped — here a heavy tuple
// for the window that straddles the checkpoint cut, sent on a connection
// opened before the restart and only once the reset has completed. The
// worker closes the superseded link and the resumed alerts still match the
// offline reference.
func TestRestartDropsSupersededLinkInput(t *testing.T) {
	msgs := wireTrace(t, 40, 300)
	cfg := clusterQ1Cfg()
	ref := offlineAlertLines(t, msgs, cfg)
	store, err := server.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cl := startCluster(t, 1, cfg, func(c *Config) { c.Store = store })
	sub1 := subscribe(t, cl.rt)
	got1 := make(chan []string, 1)
	go drainAlerts(t, sub1, got1)
	ingest := dialRouter(t, cl.rt)
	cut := len(msgs) * 6 / 10
	for _, m := range msgs[:cut] {
		ingest.send(m)
	}
	ingest.send(server.Msg{Kind: server.KindCkpt})
	if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("ckpt: got %+v", m)
	}
	stale := dialAddr(t, cl.workers[0].Addr().String())
	cl.rt.Crash()
	pre := <-got1

	rt2, err := New(Config{Addr: "127.0.0.1:0", Workers: workerAddrs(cl), Plan: routerPlan(t, cfg), Store: store})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { rt2.Close() })
	sub2 := dialRouter(t, rt2)
	sub2.send(server.Msg{Kind: server.KindSub})
	ack := sub2.recv(10 * time.Second)
	if ack.Kind != server.KindOK || ack.Seq == 0 {
		t.Fatalf("resubscribe: got %+v", ack)
	}

	heavy := msgs[ack.Seq]
	heavy.Keys = map[string]int64{"tag": 1 << 40}
	heavy.Attrs = map[string]server.Attr{}
	for k, v := range msgs[ack.Seq].Attrs {
		heavy.Attrs[k] = v
	}
	heavy.Attrs["weight"] = server.PointAttr(5000)
	stale.send(heavy)
	stale.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := stale.r.ReadByte(); err == nil || !strings.Contains(err.Error(), "EOF") {
		t.Fatalf("superseded link still open after a reset (read: %v)", err)
	}

	in2 := dialRouter(t, rt2)
	for _, m := range msgs[ack.Seq:] {
		in2.send(m)
	}
	in2.send(server.Msg{Kind: server.KindEnd})
	if m := in2.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("end after restart: got %+v", m)
	}
	got2 := make(chan []string, 1)
	go drainAlerts(t, sub2, got2)
	post := <-got2
	dup := len(pre) - int(ack.AlertCount())
	if dup < 0 || dup > len(post) {
		t.Fatalf("resume: %d pre-crash alerts, ack %d, %d replayed", len(pre), ack.AlertCount(), len(post))
	}
	combined := append(append([]string(nil), pre...), post[dup:]...)
	diffLines(t, ref, combined, "restart with a superseded link")
}
