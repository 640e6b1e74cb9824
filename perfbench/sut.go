package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/server"
)

// proc is one started SUT process; done closes once it has been reaped.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// procs is every SUT process this invocation started and has not stopped.
// killAll empties it on every exit path: normal return, fatal error and
// SIGINT/SIGTERM.
var procs struct {
	sync.Mutex
	set map[*proc]bool
}

// startProc launches a streamd subprocess with env added to this
// process's environment. Pdeathsig makes the kernel kill it should this
// process die without running killAll.
func startProc(bin string, args, env []string, logf *os.File) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	procs.Lock()
	defer procs.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	if procs.set == nil {
		procs.set = map[*proc]bool{}
	}
	procs.set[p] = true
	return p, nil
}

// stopProc kills one process and waits until it has exited.
func stopProc(p *proc) {
	procs.Lock()
	delete(procs.set, p)
	procs.Unlock()
	p.cmd.Process.Kill()
	<-p.done
}

// killAll kills and reaps every process still registered.
func killAll() {
	procs.Lock()
	ps := make([]*proc, 0, len(procs.set))
	for p := range procs.set {
		ps = append(ps, p)
	}
	procs.Unlock()
	for _, p := range ps {
		stopProc(p)
	}
}

// freeAddrs reserves n distinct fresh loopback ports. All n listeners stay
// open until the last is bound: the kernel picks each port at random and
// may hand a just-released port out again, so binding and releasing one at
// a time gives a launch of six ports a duplicate about once in 500, and the
// second streamd on it fails to start.
func freeAddrs(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// ping sends one "ping" line and waits for the "pong".
func ping(addr string, timeout time.Duration) error {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(timeout))
	if _, err := c.Write([]byte("{\"kind\":\"ping\"}\n")); err != nil {
		return err
	}
	line, err := bufio.NewReader(c).ReadBytes('\n')
	if err != nil {
		return err
	}
	var m server.Msg
	if err := json.Unmarshal(line, &m); err != nil || m.Kind != server.KindPong {
		return fmt.Errorf("ping %s: unexpected reply %q", addr, line)
	}
	return nil
}

// waitReady polls until ready succeeds, the process (when given) exits, or
// the budget runs out.
func waitReady(p *proc, budget time.Duration, ready func() error) error {
	deadline := time.Now().Add(budget)
	for {
		err := ready()
		if err == nil {
			return nil
		}
		if p != nil && p.exited() {
			return fmt.Errorf("process exited: %v", p.cmd.ProcessState)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %v: %w", budget, err)
		}
		time.Sleep(readyPoll)
	}
}

// readyPoll is waitReady's polling interval. Set-up takes a few ms, so the
// interval must be a small fraction of it for setup_s to resolve it.
const readyPoll = 200 * time.Microsecond

// getJSON fetches and decodes a /statsz report.
func getJSON(url string, v any) error {
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(v)
	// Read to the end so the connection is reused, not left in TIME_WAIT.
	io.Copy(io.Discard, resp.Body)
	return err
}

// SUT is one deployment under test: a server, or a router over workers.
// Addr is the client port; the stats functions read /statsz.
type SUT struct {
	Addr string
	// ServerStats reads the server's (or each worker's) /statsz.
	ServerStats func() ([]server.Statsz, error)
	// RouterStats is nil unless the deployment is a cluster.
	RouterStats func() (router.Statsz, error)
	// Pids are the SUT's processes (empty for an in-process SUT).
	Pids []int
	// Setup is launch → ready.
	Setup time.Duration
	stop  func()
}

// Stop tears the deployment down and waits for it.
func (s *SUT) Stop() {
	if s.stop != nil {
		s.stop()
		s.stop = nil
	}
}

// procSpec is one streamd process to launch.
type procSpec struct {
	addr, http string
	args, env  []string
}

// launchProcs starts specs in order, waiting for each to answer ping before
// the next starts (a router dials its workers at startup).
func launchProcs(bin string, logf *os.File, specs []procSpec) ([]*proc, error) {
	var ps []*proc
	fail := func(err error) ([]*proc, error) {
		for _, p := range ps {
			stopProc(p)
		}
		return nil, err
	}
	for _, sp := range specs {
		args := append([]string{"-addr", sp.addr, "-http", sp.http}, sp.args...)
		p, err := startProc(bin, args, sp.env, logf)
		if err != nil {
			return fail(err)
		}
		ps = append(ps, p)
		if err := waitReady(p, 30*time.Second, func() error { return ping(sp.addr, time.Second) }); err != nil {
			return fail(fmt.Errorf("streamd %s: %w", strings.Join(args, " "), err))
		}
	}
	return ps, nil
}

// launchSUT starts the workload's streamd deployment and returns once every
// process answers ping (and, for a cluster, the router reports every worker
// alive). Setup covers exactly that interval.
func launchSUT(w Workload, bin string, logf *os.File) (*SUT, error) {
	nProcs := 1
	if w.Cluster {
		nProcs = Workers + 1
	}
	ports, err := freeAddrs(2 * nProcs)
	if err != nil {
		return nil, err
	}
	// newSpec takes the next two reserved ports: client and /statsz.
	newSpec := func(args ...string) procSpec {
		sp := procSpec{addr: ports[0], http: ports[1], args: args}
		ports = ports[2:]
		return sp
	}
	var specs []procSpec
	if w.Cluster {
		var addrs []string
		for i := 0; i < Workers; i++ {
			sp := newSpec(append([]string{"-mode", "worker"}, w.queryArgs()...)...)
			specs = append(specs, sp)
			addrs = append(addrs, sp.addr)
		}
		specs = append(specs, newSpec(append([]string{"-mode", "router", "-workers", strings.Join(addrs, ","),
			"-proto", "bin", "-replicas", strconv.Itoa(Replicas),
			"-checkpoint-every", CkptEvery.String()}, w.queryArgs()...)...))
		for i := range specs {
			specs[i].env = []string{"GOMAXPROCS=" + strconv.Itoa(ClusterProcs)}
		}
	} else {
		specs = append(specs, newSpec(append([]string{"-mode", "server", "-shards", strconv.Itoa(Shards)}, w.queryArgs()...)...))
	}

	start := time.Now()
	ps, err := launchProcs(bin, logf, specs)
	if err != nil {
		return nil, err
	}
	s := &SUT{
		stop: func() {
			for _, p := range ps {
				stopProc(p)
			}
		},
	}
	for _, p := range ps {
		s.Pids = append(s.Pids, p.cmd.Process.Pid)
	}
	servers := specs
	if w.Cluster {
		servers = specs[:Workers]
		rt := specs[Workers]
		s.Addr = rt.addr
		s.RouterStats = func() (router.Statsz, error) {
			var st router.Statsz
			err := getJSON("http://"+rt.http+"/statsz", &st)
			return st, err
		}
		err := waitReady(nil, 30*time.Second, func() error {
			st, err := s.RouterStats()
			if err != nil {
				return err
			}
			alive := 0
			for _, wk := range st.Workers {
				if wk.Alive {
					alive++
				}
			}
			if alive != Workers {
				return fmt.Errorf("%d of %d workers alive", alive, Workers)
			}
			return nil
		})
		if err != nil {
			s.Stop()
			return nil, err
		}
	} else {
		s.Addr = specs[0].addr
	}
	s.Setup = time.Since(start)
	s.ServerStats = func() ([]server.Statsz, error) {
		var out []server.Statsz
		for _, sp := range servers {
			var st server.Statsz
			if err := getJSON("http://"+sp.http+"/statsz", &st); err != nil {
				return nil, err
			}
			out = append(out, st)
		}
		return out, nil
	}
	return s, nil
}

// procCPU is a process's CPU time: the on-CPU nanoseconds of each of its
// threads (/proc/<pid>/task/<tid>/schedstat, first field), summed.
// /proc/<pid>/stat counts in 10 ms clock ticks, too coarse for the 1 s
// slices cpu_ms_per_ktuple takes medians over: at 8k tuples/s every slice
// read a multiple of 1.25 ms per 1000 tuples. A thread that exits takes its
// time with it; streamd's Go runtime keeps its threads.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tids, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var tot time.Duration
	for _, t := range tids {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited since the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		tot += time.Duration(ns)
	}
	return tot, nil
}

// hostTicks reads the machine's steal time and total CPU time, in clock
// ticks, from the "cpu" line of /proc/stat; zeros if it cannot.
func hostTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal guest guest_nice;
		// guest time is already counted in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// sumCPU totals procCPU over pids.
func sumCPU(pids []int) (time.Duration, error) {
	var tot time.Duration
	for _, p := range pids {
		c, err := procCPU(p)
		if err != nil {
			return 0, err
		}
		tot += c
	}
	return tot, nil
}

// peakRSS sums VmHWM (peak resident set) over pids, in bytes.
func peakRSS(pids []int) (int64, error) { return statusBytes(pids, "VmHWM:") }

// residentRSS sums VmRSS (resident set now) over pids, in bytes.
func residentRSS(pids []int) (int64, error) { return statusBytes(pids, "VmRSS:") }

// statusBytes sums a kB field of /proc/<pid>/status over pids, in bytes.
func statusBytes(pids []int, field string) (int64, error) {
	var tot int64
	for _, p := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
				kb, err := strconv.ParseInt(f[1], 10, 64)
				if err != nil {
					return 0, err
				}
				tot += kb * 1024
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no %s in /proc/%d/status", field, p)
		}
	}
	return tot, nil
}
