package deploy_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/deploy"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/proccluster"
)

// TestTopologyCodecFieldIgnored pins the deprecated "codec" field: topology
// files naming "gob", naming "binary", or naming no codec all load and
// validate, and each runs the same binary-codec TCP plane — a one-shard
// loopback cluster built by the topology's own constructors commits a KV put
// and reads it back.
func TestTopologyCodecFieldIgnored(t *testing.T) {
	for _, tc := range []struct{ name, field string }{
		{"gob", `"codec": "gob", `},
		{"binary", `"codec": "binary", `},
		{"absent", ``},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ports, err := proccluster.FreePorts(4)
			if err != nil {
				t.Fatal(err)
			}
			addrs := make([]string, len(ports))
			for i, p := range ports {
				addrs[i] = fmt.Sprintf(`"127.0.0.1:%d"`, p)
			}
			path := filepath.Join(t.TempDir(), "topology.json")
			file := fmt.Sprintf(`{"f": 1, %s"replicas": [%s]}`, tc.field, strings.Join(addrs, ", "))
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
			topo, err := deploy.LoadTopology(path)
			if err != nil {
				t.Fatalf("LoadTopology(%s): %v", file, err)
			}

			quiet := log.New(io.Discard, "", 0)
			for i := range addrs {
				self := ids.Replica(i)
				ep, err := topo.NewReplicaEndpoint(self)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(ep.Close)
				node, err := topo.NewNodeObs(self, ep, quiet, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				node.Start()
				t.Cleanup(node.Stop)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			client := ids.Client(0)
			ep, sc, err := topo.DialClient(ctx, client, "127.0.0.1:0", 1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ep.Close)
			t.Cleanup(sc.Close)
			if _, err := sc.Invoke(ctx, msg.Request{Client: client, Timestamp: 1, Command: app.EncodeKVPut("k", tc.name)}); err != nil {
				t.Fatalf("put: %v", err)
			}
			got, err := sc.Invoke(ctx, msg.Request{Client: client, Timestamp: 2, Command: app.EncodeKVGet("k")})
			if err != nil {
				t.Fatalf("get: %v", err)
			}
			if string(got) != tc.name {
				t.Fatalf("get returned %q, want %q", got, tc.name)
			}
		})
	}
}
