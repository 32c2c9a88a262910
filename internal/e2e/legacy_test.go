package e2e

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"abstractbft/internal/proccluster"
)

// TestLegacyFlagModeOverBinary runs legacy flag mode — cmd/replica and
// cmd/client configured by -replicas instead of a topology file — as real
// processes. Its endpoints frame with the binary codec like topology mode's,
// so a client process must commit its whole workload against four replica
// processes.
func TestLegacyFlagModeOverBinary(t *testing.T) {
	rb, cb := buildBins(t)
	ports, err := proccluster.FreePorts(5)
	if err != nil {
		t.Fatalf("reserving ports: %v", err)
	}
	addrs := make([]string, 4)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", ports[i])
	}
	replicas := strings.Join(addrs, ",")

	dir := t.TempDir()
	for i := range addrs {
		logFile, err := os.Create(filepath.Join(dir, fmt.Sprintf("replica%d.log", i)))
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(rb, "-id", fmt.Sprint(i), "-replicas", replicas)
		cmd.Stdout, cmd.Stderr = logFile, logFile
		if err := cmd.Start(); err != nil {
			logFile.Close()
			t.Fatalf("starting replica %d: %v", i, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
			logFile.Close()
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, cb, "-replicas", replicas, "-requests", "100",
		"-listen-base", fmt.Sprint(ports[4])).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "committed 100 requests") {
		for i := range addrs {
			data, _ := os.ReadFile(filepath.Join(dir, fmt.Sprintf("replica%d.log", i)))
			t.Logf("=== replica%d.log ===\n%s", i, data)
		}
		t.Fatalf("client process did not commit the workload (%v):\n%s", err, out)
	}
}
