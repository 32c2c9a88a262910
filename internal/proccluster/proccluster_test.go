package proccluster

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"abstractbft/internal/deploy"
)

// TestWaitReadyReportsLogAndExit: when a replica's address refuses
// connections, WaitReady's error names how the replica's process ended and
// ends with the last line of its log, so a failed start says why.
func TestWaitReadyReportsLogAndExit(t *testing.T) {
	ports, err := FreePorts(1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const lastLine = "listen tcp 127.0.0.1: bind: address already in use"
	logPath := filepath.Join(dir, "replica0.log")
	if err := os.WriteFile(logPath, []byte("replica r0 starting\n"+lastLine+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	logFile, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	p, err := startReplicaProc(exec.Command("sh", "-c", "exit 3"), logFile)
	if err != nil {
		t.Fatal(err)
	}
	p.wait()

	c := &Cluster{
		Topo:  deploy.Topology{Replicas: []string{fmt.Sprintf("127.0.0.1:%d", ports[0])}},
		Dir:   dir,
		procs: []*replicaProc{p},
	}
	err = c.WaitReady(50 * time.Millisecond)
	if err == nil {
		t.Fatal("WaitReady succeeded against an address that refuses connections")
	}
	msg := err.Error()
	if !strings.HasSuffix(msg, lastLine) {
		t.Errorf("error does not end with the log's last line %q:\n%s", lastLine, msg)
	}
	if !strings.Contains(msg, "exit status 3") {
		t.Errorf("error does not carry the exit status:\n%s", msg)
	}
}
