package compose_test

import (
	"strings"
	"testing"

	"abstractbft/internal/compose"
	"abstractbft/internal/core"
)

func TestParseDSL(t *testing.T) {
	spec, err := compose.Parse("quorum, chain,backup")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := spec.String(); got != "quorum,chain,backup" {
		t.Fatalf("String() = %q", got)
	}
	if spec.CycleLen() != 3 {
		t.Fatalf("CycleLen = %d", spec.CycleLen())
	}

	spec, err = compose.Parse("zlight*2,backup")
	if err != nil {
		t.Fatalf("parse repeat: %v", err)
	}
	if spec.CycleLen() != 3 {
		t.Fatalf("repeat CycleLen = %d", spec.CycleLen())
	}
	for id, want := range map[core.InstanceID]string{
		1: "zlight", 2: "zlight", 3: "backup", 4: "zlight", 5: "zlight", 6: "backup",
	} {
		if got := spec.ProtocolAt(id); got != want {
			t.Errorf("ProtocolAt(%d) = %q, want %q", id, got, want)
		}
	}

	for _, bad := range []string{"", "quorum,", "nosuch,backup", "zlight*0,backup", "zlight*x,backup"} {
		if _, err := compose.Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
	// A schedule without a strong stage can abort forever: rejected.
	if _, err := compose.Parse("zlight,chain"); err == nil ||
		!strings.Contains(err.Error(), "strong") {
		t.Errorf("strongless spec accepted: %v", err)
	}
}

func TestParseRegisteredNames(t *testing.T) {
	for name, dsl := range map[string]string{
		"aliph":               "quorum,chain,backup",
		"azyzzyva":            "zlight,backup",
		"zlight-chain-backup": "zlight,chain,backup",
		"chain-backup":        "chain,backup",
	} {
		spec, err := compose.Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if spec.String() != dsl {
			t.Errorf("Parse(%q) = %q, want %q", name, spec.String(), dsl)
		}
	}
	if names := compose.SpecNames(); len(names) < 4 {
		t.Errorf("SpecNames() = %v, want at least the built-in schedules", names)
	}
	if protos := compose.Protocols(); len(protos) != 5 {
		t.Errorf("Protocols() = %v, want the five built-ins (zlight, quorum, chain, backup, pbft)", protos)
	}
}

// TestRoleOf: the "aliph" schedule runs Quorum, Chain and Backup in turn, and
// the k-th Backup instance (3, 6, 9, ...) has strong index k.
func TestRoleOf(t *testing.T) {
	aliph := compose.MustParse("aliph")
	for id, want := range map[core.InstanceID]string{
		1: "quorum", 2: "chain", 3: "backup", 4: "quorum", 5: "chain", 6: "backup",
	} {
		if got := aliph.ProtocolAt(id); got != want {
			t.Errorf("aliph.ProtocolAt(%d) = %q, want %q", id, got, want)
		}
	}
	for id, want := range map[core.InstanceID]int{3: 0, 6: 1, 9: 2} {
		if got := aliph.StrongIndex(id); got != want {
			t.Errorf("aliph.StrongIndex(%d) = %d, want %d", id, got, want)
		}
	}
}

// TestBackupIndex: the "azyzzyva" schedule runs ZLight on odd instances and
// Backup on even ones, and Backup instance 2k has strong index k-1.
func TestBackupIndex(t *testing.T) {
	azy := compose.MustParse("azyzzyva")
	for id, want := range map[core.InstanceID]int{2: 0, 4: 1, 6: 2, 8: 3} {
		if got := azy.StrongIndex(id); got != want {
			t.Errorf("azyzzyva.StrongIndex(%d) = %d, want %d", id, got, want)
		}
	}
	for _, id := range []core.InstanceID{1, 3, 5, 7} {
		if got := azy.ProtocolAt(id); got != "zlight" {
			t.Errorf("azyzzyva.ProtocolAt(%d) = %q, want zlight", id, got)
		}
	}
	for _, id := range []core.InstanceID{2, 4, 6} {
		if got := azy.ProtocolAt(id); got != "backup" {
			t.Errorf("azyzzyva.ProtocolAt(%d) = %q, want backup", id, got)
		}
	}
}

// TestStrongIndex: the exponential K policy's input (how many Backups
// preceded an instance) is derived from the schedule.
func TestStrongIndex(t *testing.T) {
	aliph := compose.MustParse("aliph")
	for id, want := range map[core.InstanceID]int{3: 0, 6: 1, 9: 2, 1: 0, 4: 1} {
		if got := aliph.StrongIndex(id); got != want {
			t.Errorf("aliph.StrongIndex(%d) = %d, want %d", id, got, want)
		}
	}
	azy := compose.MustParse("azyzzyva")
	for id, want := range map[core.InstanceID]int{2: 0, 4: 1, 6: 2} {
		if got := azy.StrongIndex(id); got != want {
			t.Errorf("azyzzyva.StrongIndex(%d) = %d, want %d", id, got, want)
		}
	}
	cb := compose.MustParse("chain-backup")
	for id, want := range map[core.InstanceID]int{2: 0, 4: 1} {
		if got := cb.StrongIndex(id); got != want {
			t.Errorf("chain-backup.StrongIndex(%d) = %d, want %d", id, got, want)
		}
	}
}

func TestCompositionRoleDerivation(t *testing.T) {
	comp, err := compose.New(compose.MustParse("zlight,chain,backup"), compose.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for id, want := range map[core.InstanceID]string{
		1: "zlight", 2: "chain", 3: "backup", 4: "zlight", 7: "zlight",
	} {
		if got := comp.ProtocolOf(id); got != want {
			t.Errorf("ProtocolOf(%d) = %q, want %q", id, got, want)
		}
	}
	d := comp.DescriptorOf(3)
	if !d.Strong() || d.Progress != core.ProgressAlwaysK {
		t.Errorf("backup descriptor not strong: %+v", d)
	}
}
