package main

import (
	"fmt"
	"time"

	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/uop"
)

// serverConfig is the server.Config cmd/streamd builds for the flags
// launchSUT passes (no -data-dir, so no store).
func serverConfig(newPlan func() *uop.Compiled, cluster bool) server.Config {
	return server.Config{
		Addr:            "127.0.0.1:0",
		NewPlan:         newPlan,
		QueueCap:        QueueCap,
		Policy:          server.Block,
		Buffer:          Buffer,
		FlushEvery:      stream.DefaultFlushEvery,
		CheckpointEvery: 5 * time.Second,
		Cluster:         cluster,
	}
}

// startInProc starts the workload's deployment inside this process, with
// every plan the servers compile wrapped by tr — the traced run's SUT.
func startInProc(w Workload, tr *Tracer) (*SUT, error) {
	start := time.Now()
	if !w.Cluster {
		s, err := server.New(serverConfig(tr.WrapFactory(w.ServerPlan()), false))
		if err != nil {
			return nil, err
		}
		return &SUT{
			Addr:        s.Addr().String(),
			ServerStats: func() ([]server.Statsz, error) { return []server.Statsz{s.Stats()}, nil },
			Setup:       time.Since(start),
			stop:        func() { s.Close() },
		}, nil
	}
	plan, err := w.ClusterPlan()
	if err != nil {
		return nil, err
	}
	var workers []*server.Server
	stopWorkers := func() {
		for _, s := range workers {
			s.Close()
		}
	}
	var addrs []string
	for i := 0; i < Workers; i++ {
		s, err := server.New(serverConfig(tr.WrapFactory(plan.CompileWorker), true))
		if err != nil {
			stopWorkers()
			return nil, err
		}
		workers = append(workers, s)
		addrs = append(addrs, s.Addr().String())
	}
	r, err := router.New(router.Config{
		Addr:       "127.0.0.1:0",
		Workers:    addrs,
		Slots:      Workers,
		Replicas:   Replicas,
		Plan:       plan,
		SendBuffer: QueueCap,
		PingEvery:  time.Second,
		CkptEvery:  CkptEvery,
		Proto:      "bin",
	})
	if err != nil {
		stopWorkers()
		return nil, fmt.Errorf("router: %w", err)
	}
	return &SUT{
		Addr: r.Addr().String(),
		ServerStats: func() ([]server.Statsz, error) {
			var out []server.Statsz
			for _, s := range workers {
				out = append(out, s.Stats())
			}
			return out, nil
		},
		RouterStats: func() (router.Statsz, error) { return r.Stats(), nil },
		Setup:       time.Since(start),
		stop: func() {
			r.Close()
			stopWorkers()
		},
	}, nil
}
