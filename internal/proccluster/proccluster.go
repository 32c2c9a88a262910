// Package proccluster spawns real cmd/replica and cmd/client OS processes on
// loopback TCP for process-level end-to-end tests and benchmarks: the
// strongest deployment fidelity the repository can exercise on one machine —
// separate address spaces, real sockets, SIGKILL crashes, and crash-restart
// recovery through the -recover path.
//
// The e2e harness (internal/e2e) uses the package, so it drives the exact
// binaries an operator deploys rather than a test-only reimplementation.
package proccluster

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"abstractbft/internal/deploy"
	"abstractbft/internal/ids"
	"abstractbft/internal/transport"
)

// BuildBinaries compiles cmd/replica and cmd/client into dir and returns
// their paths. The module root is located by walking up from the current
// working directory to the nearest go.mod.
func BuildBinaries(dir string) (replicaBin, clientBin string, err error) {
	root, err := moduleRoot()
	if err != nil {
		return "", "", err
	}
	replicaBin = filepath.Join(dir, "replica")
	clientBin = filepath.Join(dir, "client")
	for _, b := range []struct{ out, pkg string }{
		{replicaBin, "./cmd/replica"},
		{clientBin, "./cmd/client"},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", "", fmt.Errorf("proccluster: go build %s: %v\n%s", b.pkg, err, out)
		}
	}
	return replicaBin, clientBin, nil
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("proccluster: no go.mod above the working directory")
		}
		dir = parent
	}
}

// FreePorts reserves n distinct loopback TCP ports by binding and releasing
// them. The release-to-bind window is racy in principle; in practice the
// kernel does not rebind a just-released ephemeral port before the replica
// process claims it, and a collision fails loudly at replica startup.
func FreePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// Config describes a process cluster.
type Config struct {
	// Dir is the working directory (topology file, logs, binaries). Required.
	Dir string
	// Topology is the deployment description; Replicas is filled in from
	// fresh loopback ports when empty.
	Topology deploy.Topology
	// ReplicaBin and ClientBin are prebuilt binary paths; empty means
	// BuildBinaries into Dir.
	ReplicaBin, ClientBin string
}

// Cluster is a running set of cmd/replica OS processes.
type Cluster struct {
	Topo       deploy.Topology
	TopoPath   string
	Dir        string
	ReplicaBin string
	ClientBin  string

	procs []*replicaProc
}

// replicaProc is one replica OS process. One goroutine reaps it as soon as
// it exits, so Kill, StopAll and restarts never race a Cmd.Wait, and a
// replica that died while starting shows as exited.
type replicaProc struct {
	cmd     *exec.Cmd
	exited  chan struct{} // closed once the process is reaped
	waitErr error
}

// startReplicaProc starts cmd, whose output goes to logFile, and reaps it in
// the background.
func startReplicaProc(cmd *exec.Cmd, logFile *os.File) (*replicaProc, error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &replicaProc{cmd: cmd, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		logFile.Close()
		close(p.exited)
	}()
	return p, nil
}

// wait blocks until the process is reaped and returns its exit error.
func (p *replicaProc) wait() error {
	<-p.exited
	return p.waitErr
}

// Start builds (if needed) and spawns the replica processes, waiting until
// every one is reachable.
func Start(cfg Config) (*Cluster, error) {
	c := &Cluster{Topo: cfg.Topology, Dir: cfg.Dir, ReplicaBin: cfg.ReplicaBin, ClientBin: cfg.ClientBin}
	if c.ReplicaBin == "" || c.ClientBin == "" {
		rb, cb, err := BuildBinaries(cfg.Dir)
		if err != nil {
			return nil, err
		}
		c.ReplicaBin, c.ClientBin = rb, cb
	}
	n := c.Topo.Cluster().N
	if len(c.Topo.Replicas) == 0 {
		ports, err := FreePorts(n)
		if err != nil {
			return nil, err
		}
		for _, p := range ports {
			c.Topo.Replicas = append(c.Topo.Replicas, fmt.Sprintf("127.0.0.1:%d", p))
		}
	}
	if len(c.Topo.MetricsAddrs) == 0 {
		// Every replica process serves its observability front door; harnesses
		// scrape MetricsAddr(i) to assert on live internals.
		ports, err := FreePorts(n)
		if err != nil {
			return nil, err
		}
		for _, p := range ports {
			c.Topo.MetricsAddrs = append(c.Topo.MetricsAddrs, fmt.Sprintf("127.0.0.1:%d", p))
		}
	}
	if err := c.Topo.Validate(); err != nil {
		return nil, err
	}
	c.TopoPath = filepath.Join(cfg.Dir, "topology.json")
	if err := c.Topo.WriteFile(c.TopoPath); err != nil {
		return nil, err
	}
	c.procs = make([]*replicaProc, n)
	for i := 0; i < n; i++ {
		if err := c.StartReplica(i, false); err != nil {
			c.StopAll()
			return nil, err
		}
	}
	if err := c.WaitReady(10 * time.Second); err != nil {
		c.StopAll()
		return nil, err
	}
	return c, nil
}

// StartReplica spawns replica i (with the -recover path when rejoining a
// live cluster after a kill). Its stderr/stdout go to replica<i>.log in Dir
// (appended across restarts).
func (c *Cluster) StartReplica(i int, recover bool) error {
	args := []string{"-topology", c.TopoPath, "-id", fmt.Sprint(i)}
	if recover {
		args = append(args, "-recover")
	}
	cmd := exec.Command(c.ReplicaBin, args...)
	logFile, err := os.OpenFile(c.replicaLog(i), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	p, err := startReplicaProc(cmd, logFile)
	if err != nil {
		logFile.Close()
		return fmt.Errorf("proccluster: start replica %d: %w", i, err)
	}
	c.procs[i] = p
	return nil
}

// KillReplica SIGKILLs replica i's process — a real crash: no shutdown
// hooks, no flushes, the kernel reclaims the sockets.
func (c *Cluster) KillReplica(i int) error {
	p := c.procs[i]
	if p == nil {
		return fmt.Errorf("proccluster: replica %d not running", i)
	}
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	// Reap it so the listen port is fully released before a restart.
	p.wait()
	c.procs[i] = nil
	return nil
}

// MetricsAddr returns replica i's observability listen address (empty when
// the topology runs without metrics).
func (c *Cluster) MetricsAddr(i int) string {
	if i < 0 || i >= len(c.Topo.MetricsAddrs) {
		return ""
	}
	return c.Topo.MetricsAddrs[i]
}

// WaitReady blocks until every replica's listen address accepts connections.
// When one does not, the error says whether its process has exited, and how,
// and ends with the last lines of its replica<i>.log (an "address already in
// use" there means its port was taken between FreePorts and the listen).
func (c *Cluster) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, addr := range c.Topo.Replicas {
		for {
			conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("proccluster: replica %d (%s) not reachable: %w%s", i, addr, err, c.startupReport(i))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

// replicaLog is the path of replica i's log (appended across restarts).
func (c *Cluster) replicaLog(i int) string {
	return filepath.Join(c.Dir, fmt.Sprintf("replica%d.log", i))
}

// logTailLines is how much of a replica's log a start-up failure reports.
const logTailLines = 20

// startupReport describes replica i for a failed WaitReady: its exit status
// if its process has exited, then the tail of its log.
func (c *Cluster) startupReport(i int) string {
	var b strings.Builder
	if i < len(c.procs) && c.procs[i] != nil {
		select {
		case <-c.procs[i].exited:
			status := "exit status 0"
			if err := c.procs[i].waitErr; err != nil {
				status = err.Error()
			}
			fmt.Fprintf(&b, "; its process has exited (%s)", status)
		default:
			b.WriteString("; its process is still running")
		}
	}
	logPath := c.replicaLog(i)
	data, err := os.ReadFile(logPath)
	if err != nil {
		fmt.Fprintf(&b, "; no log: %v", err)
		return b.String()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > logTailLines {
		lines = lines[len(lines)-logTailLines:]
	}
	fmt.Fprintf(&b, "; %s ends:\n%s", logPath, strings.Join(lines, "\n"))
	return b.String()
}

// RunClient spawns a cmd/client process against the cluster and returns its
// combined output (committed counts and latency summary on success).
func (c *Cluster) RunClient(ctx context.Context, args ...string) (string, error) {
	full := append([]string{"-topology", c.TopoPath}, args...)
	cmd := exec.CommandContext(ctx, c.ClientBin, full...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// ClientProc is a background cmd/client process; Wait reaps it and returns
// its exit error. Its output goes to client.log in the cluster directory.
type ClientProc struct {
	cmd     *exec.Cmd
	logFile *os.File
	LogPath string
}

// Wait blocks until the client process exits, returning its exit error.
func (p *ClientProc) Wait() error {
	err := p.cmd.Wait()
	p.logFile.Close()
	return err
}

// Kill terminates the client process.
func (p *ClientProc) Kill() error { return p.cmd.Process.Kill() }

// StartClient spawns a cmd/client process without waiting for it (background
// workload drivers).
func (c *Cluster) StartClient(args ...string) (*ClientProc, error) {
	full := append([]string{"-topology", c.TopoPath}, args...)
	cmd := exec.Command(c.ClientBin, full...)
	logPath := filepath.Join(c.Dir, "client.log")
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	return &ClientProc{cmd: cmd, logFile: logFile, LogPath: logPath}, nil
}

// StopAll terminates every replica process still running (SIGTERM, then
// SIGKILL after a grace period).
func (c *Cluster) StopAll() {
	for i, p := range c.procs {
		if p == nil {
			continue
		}
		p.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func(p *replicaProc) {
			p.wait()
			close(done)
		}(p)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			p.cmd.Process.Kill()
			<-done
		}
		c.procs[i] = nil
	}
}

// NewVerifier builds an in-test client endpoint plus sharded client against
// the cluster: harnesses use it to issue assertion traffic (puts, gets,
// retransmissions) over the same authenticated TCP path real clients use.
// The endpoint is primed, so it has proven itself to every replica before
// its first request.
func (c *Cluster) NewVerifier(clientIndex, depth int) (*transport.TCP, *VerifierClient, error) {
	id := ids.Client(clientIndex)
	dialCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ep, sc, err := c.Topo.DialClient(dialCtx, id, "127.0.0.1:0", depth)
	if err != nil {
		return nil, nil, err
	}
	return ep, &VerifierClient{ID: id, Client: sc}, nil
}
