package main

import (
	"fmt"
	"time"

	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/uop"
)

// Workload is one traffic mix the benchmark runs against streamd. Every
// workload replays the same RFID trace shape; they differ in the query the
// daemon serves and in how the daemon is deployed, so each stresses a
// different set of layers (see README.md, "Workloads").
type Workload struct {
	Name string
	Why  string
	// Query is streamd's -query value: "q1" (gated SUM) or "quantile".
	Query string
	// SlideMS is the window slide (0 = tumbling).
	SlideMS int64
	// Cluster runs a router over two workers instead of one server.
	Cluster bool
	// Rate is the open-loop offered load in tuples/s: a constant at a
	// quarter to a third of the saturation throughput measured at the
	// commit that defined the benchmark, so later commits are compared at
	// equal load. At half, runs in which the hypervisor took a third of the
	// machine's CPU overran the rate, and the open loop's backlog tripled
	// peak RSS.
	Rate float64
}

const (
	// Shards is streamd's default -shards value, used by both
	// single-process workloads.
	Shards = 2
	// Workers, Replicas and CkptEvery shape the q1-cluster deployment.
	Workers   = 2
	Replicas  = 2
	CkptEvery = time.Second
	// ClusterProcs is each cluster process's GOMAXPROCS. The router and
	// both workers share the machine's 2 vCPUs with the generator; at
	// Go's default of one P per vCPU they ran 6 Ps there, and the spinning
	// and preemption among them cost a quarter more CPU per tuple and
	// doubled the run-to-run spread of throughput.
	ClusterProcs = 1
	// QueueCap and Buffer are streamd's -queue and -buffer defaults; the
	// in-process SUT of a traced run must use the same values.
	QueueCap = 1024
	Buffer   = 128
)

var workloads = []Workload{
	{
		Name:  "q1-tumbling",
		Why:   "Q1 gated SUM on 5 s tumbling windows in one sharded server: the per-tuple ingest and aggregation path, few alerts",
		Query: "q1",
		Rate:  45000,
	},
	{
		Name:    "quantile-sliding",
		Why:     "per-area weight median on 5 s windows sliding by 1 s: window close, eviction and alert output dominate; bypasses the sum",
		Query:   "quantile",
		SlideMS: 1000,
		Rate:    4000,
	},
	{
		Name:    "q1-cluster",
		Why:     "the same Q1 through a router and two workers with replicas and 1 s checkpoints: isolates routing, links and head merge",
		Query:   "q1",
		Cluster: true,
		Rate:    15000,
	},
}

func lookupWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q (want q1-tumbling, quantile-sliding or q1-cluster)", name)
}

// q1Config and q3Config mirror the configs cmd/streamd builds from its
// flags for the arguments streamdArgs passes.
func (w Workload) q1Config(shards int) uop.Q1Config {
	cfg := server.DefaultQ1Config()
	cfg.SlideMS = stream.Time(w.SlideMS)
	cfg.Shards = shards
	return cfg
}

func (w Workload) q3Config(shards int) uop.Q3Config {
	cfg := server.DefaultQ3Config()
	cfg.SlideMS = stream.Time(w.SlideMS)
	cfg.Shards = shards
	return cfg
}

// query builds the workload's query chain with the given shard count.
func (w Workload) query(shards int) *uop.Query {
	if w.Query == "quantile" {
		return uop.BuildQ3(w.q3Config(shards))
	}
	return uop.BuildQ1(w.q1Config(shards))
}

// Spec is the workload's window policy.
func (w Workload) Spec() stream.WindowSpec {
	win := w.q1Config(0).WindowMS
	if w.Query == "quantile" {
		win = w.q3Config(0).WindowMS
	}
	return stream.WindowSpec{Duration: win, Slide: stream.Time(w.SlideMS)}
}

// step is the window clock's step in ms: the slide, or a tumbling
// window's Range.
func (w Workload) step() int64 {
	if spec := w.Spec(); spec.Slide > 0 {
		return int64(spec.Slide)
	}
	return int64(w.Spec().Duration)
}

// ReferencePlan is the offline reference: the unsharded plan pushed
// synchronously, the same shape cmd/rfidtrace -wire compiles.
func (w Workload) ReferencePlan() *uop.Compiled { return w.query(0).Compile() }

// ServerPlan is the plan factory streamd installs in server mode.
func (w Workload) ServerPlan() func() *uop.Compiled {
	if w.Query == "quantile" {
		return server.Q3Plan(w.q3Config(Shards))
	}
	return server.Q1Plan(w.q1Config(Shards))
}

// ClusterPlan is the split streamd's router and workers execute.
func (w Workload) ClusterPlan() (*uop.ClusterPlan, error) { return w.query(0).Cluster() }

// queryArgs are the streamd flags selecting the workload's query.
func (w Workload) queryArgs() []string {
	args := []string{"-query", w.Query}
	if w.SlideMS > 0 {
		args = append(args, "-slide", fmt.Sprint(w.SlideMS))
	}
	return args
}
