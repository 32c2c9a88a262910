// Package compose is the declarative composition API of the repository: a
// protocol registry where every Abstract implementation (ZLight, Quorum,
// Chain, Backup) registers one symmetric descriptor — name, progress
// predicate, replica-side constructor, client-side constructor — and a
// switching-schedule Spec (ordered stages with cycle/repeat semantics,
// parseable from a string DSL) from which role-of-instance, replica
// factories, and client factories are all derived.
//
// The paper's thesis is that new BFT protocols are cheap to build by
// composing Abstract instances; this package makes the composition a value:
//
//	comp, err := compose.New(compose.MustParse("quorum,chain,backup"), compose.Options{})
//
// is the whole of Aliph, and any other registered-protocol sequence — e.g.
// "zlight,chain,backup" or "chain,backup" — is an equally valid protocol
// with no further code.
package compose

import (
	"fmt"
	"sort"
	"sync"

	"abstractbft/internal/core"
	"abstractbft/internal/host"
)

// ReplicaContext is what a descriptor's replica constructor gets to build the
// per-instance protocol factory of one composition: the composition-wide
// options and the schedule-derived strong-stage index (the "how many Backups
// preceded me" input of the exponential K policy). Each protocol replica
// reads its cluster from its host (Host.Cluster).
type ReplicaContext struct {
	// Opts are the composition options.
	Opts Options
	// StrongIndex maps an instance number to the 0-based count of
	// strong-progress instances that preceded it in the schedule; it
	// parameterizes Backup's exponential K policy.
	StrongIndex func(core.InstanceID) int
}

// Descriptor is the symmetric registration record of one Abstract
// implementation.
type Descriptor struct {
	// Name is the registry key and the token naming this protocol in the
	// Spec DSL (lowercase, no commas or asterisks).
	Name string
	// Progress is the implementation's progress predicate (§3.3); stages
	// with core.ProgressAlwaysK or core.ProgressAlways count as strong and
	// guarantee the composition's liveness.
	Progress core.Progress
	// NewReplica builds the replica-side protocol factory for instances of
	// this protocol within one composition.
	NewReplica func(ctx ReplicaContext) host.ProtocolFactory
	// NewClient builds the client-side handle of one instance.
	NewClient func(env core.ClientEnv, id core.InstanceID) (core.Instance, error)
}

// Strong reports whether the implementation guarantees progress regardless
// of asynchrony, failures, and contention (for at least k requests): the
// property a schedule needs in at least one stage to terminate.
func (d *Descriptor) Strong() bool {
	return d.Progress == core.ProgressAlwaysK || d.Progress == core.ProgressAlways
}

var (
	regMu     sync.RWMutex
	protocols = make(map[string]*Descriptor)
	specs     = make(map[string]Spec)
)

// Register records a protocol descriptor under its name. It panics on a
// duplicate or invalid registration (registration is an init-time act).
func Register(d Descriptor) {
	if d.Name == "" || d.NewReplica == nil || d.NewClient == nil {
		panic("compose: descriptor must have a name and both constructors")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := protocols[d.Name]; dup {
		panic(fmt.Sprintf("compose: protocol %q registered twice", d.Name))
	}
	protocols[d.Name] = &d
}

// Lookup returns the descriptor registered under name.
func Lookup(name string) (*Descriptor, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := protocols[name]
	return d, ok
}

// Protocols returns the registered protocol names, sorted.
func Protocols() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(protocols))
	for name := range protocols {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RegisterSpec records a named switching schedule ("aliph", "azyzzyva", ...)
// so DSL strings may refer to whole compositions by name. It panics on a
// duplicate name or a name colliding with a registered protocol.
func RegisterSpec(name string, spec Spec) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := specs[name]; dup {
		panic(fmt.Sprintf("compose: spec %q registered twice", name))
	}
	if _, collides := protocols[name]; collides {
		panic(fmt.Sprintf("compose: spec %q collides with a protocol name", name))
	}
	spec.Name = name
	specs[name] = spec
}

// SpecByName returns the schedule registered under name.
func SpecByName(name string) (Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := specs[name]
	return s, ok
}

// SpecNames returns the registered schedule names, sorted.
func SpecNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(specs))
	for name := range specs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
