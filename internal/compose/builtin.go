package compose

import (
	"math"

	"abstractbft/internal/backup"
	"abstractbft/internal/chain"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/quorum"
	"abstractbft/internal/zlight"
)

// The built-in Abstract implementations register one symmetric descriptor
// each: both constructors and the progress predicate live side by side, so a
// schedule referencing the name can never pair a replica factory with the
// wrong client factory.
func init() {
	Register(Descriptor{
		Name:     "zlight",
		Progress: core.ProgressCommonCase,
		NewReplica: func(ctx ReplicaContext) host.ProtocolFactory {
			return zlight.NewReplica()
		},
		NewClient: func(env core.ClientEnv, id core.InstanceID) (core.Instance, error) {
			return zlight.NewClient(env, id), nil
		},
	})
	Register(Descriptor{
		Name:     "quorum",
		Progress: core.ProgressNoContention,
		NewReplica: func(ctx ReplicaContext) host.ProtocolFactory {
			return quorum.NewReplica()
		},
		NewClient: func(env core.ClientEnv, id core.InstanceID) (core.Instance, error) {
			return quorum.NewClient(env, id), nil
		},
	})
	Register(Descriptor{
		Name:     "chain",
		Progress: core.ProgressCommonCase,
		NewReplica: func(ctx ReplicaContext) host.ProtocolFactory {
			return chain.NewReplica(chain.ReplicaConfig{
				LowLoadAfter: ctx.Opts.LowLoadAfter,
			})
		},
		NewClient: func(env core.ClientEnv, id core.InstanceID) (core.Instance, error) {
			return chain.NewClient(env, id), nil
		},
	})
	Register(Descriptor{
		Name:     "backup",
		Progress: core.ProgressAlwaysK,
		NewReplica: func(ctx ReplicaContext) host.ProtocolFactory {
			return backup.NewReplica(backup.ReplicaConfig{
				BackupIndex:       ctx.StrongIndex,
				ViewChangeTimeout: ctx.Opts.ViewChangeTimeout,
			})
		},
		NewClient: func(env core.ClientEnv, id core.InstanceID) (core.Instance, error) {
			return backup.NewClient(env, id), nil
		},
	})
	// The standalone always-progress baseline: the Backup machinery without
	// the k-bound (FixedK(MaxUint64) never stops the instance), so the paper's
	// PBFT baseline is expressible as the one-stage Spec "pbft" — a
	// backup-only deployment that never switches — and usable as the strong
	// stage of any schedule.
	Register(Descriptor{
		Name:     "pbft",
		Progress: core.ProgressAlways,
		NewReplica: func(ctx ReplicaContext) host.ProtocolFactory {
			return backup.NewReplica(backup.ReplicaConfig{
				K:                 backup.FixedK(math.MaxUint64),
				BackupIndex:       ctx.StrongIndex,
				ViewChangeTimeout: ctx.Opts.ViewChangeTimeout,
			})
		},
		NewClient: func(env core.ClientEnv, id core.InstanceID) (core.Instance, error) {
			return backup.NewClient(env, id), nil
		},
	})

	// The named schedules: the paper's compositions plus the schedules the
	// declarative API unlocked (previously unbuildable without a bespoke
	// package per composition).
	RegisterSpec("aliph", MustParse("quorum,chain,backup"))
	RegisterSpec("azyzzyva", MustParse("zlight,backup"))
	RegisterSpec("zlight-chain-backup", MustParse("zlight,chain,backup"))
	RegisterSpec("chain-backup", MustParse("chain,backup"))
	RegisterSpec("quorum-backup", MustParse("quorum,backup"))
}
