package core

import (
	"context"

	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// PanicAndAbort runs the client side of the panicking/aborting subprotocol
// shared by ZLight, Quorum, and Chain (Steps P1/P1+ and P3): it periodically
// sends PANIC messages to every replica, collects signed ABORT messages, and
// once 2f+1 consistent ones have been received, extracts the abort history
// and returns the Abort outcome for the request.
//
// When this is the first invocation of the instance by the client, init is
// its init history: each PANIC round is preceded by the instance's
// InitMessage, so that uninitialized replicas can initialize before aborting
// (Step P1+/P2+).
func PanicAndAbort(ctx context.Context, env ClientEnv, instance InstanceID, req msg.Request, init *InitHistory) (Outcome, error) {
	collector := NewAbortCollector(env.Cluster, env.Keys, instance)
	panicMsg := &PanicMessage{Instance: instance, Timestamp: req.Timestamp}

	sendPanic := func() {
		if init != nil {
			env.sendInit(instance, init)
		}
		transport.Multicast(env.Endpoint, env.Cluster.Replicas(), panicMsg)
	}
	sendPanic()

	// PANIC is retransmitted every 2Δ while the 2f+1 signed ABORTs are
	// awaited.
	w := env.Await(ctx, env.Timer(2))
	defer w.Done()
	for {
		env2, ok, err := w.Next()
		if err != nil {
			return Outcome{}, err
		}
		if !ok {
			sendPanic()
			w.Rearm(env.Timer(2))
			continue
		}
		reply, isAbort := env2.Payload.(*AbortReply)
		if !isAbort || reply.Instance != instance {
			continue
		}
		if !collector.Add(reply.Signed) {
			continue
		}
		if !collector.Ready() {
			continue
		}
		ind, err := collector.Build([]msg.Request{req})
		if err != nil {
			// Not enough consistent aborts yet; keep collecting.
			continue
		}
		if env.Checker != nil {
			env.Checker.RecordAbort(instance, req, ind.Init.Extract)
		}
		return Outcome{Committed: false, Abort: &ind}, nil
	}
}
