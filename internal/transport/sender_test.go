package transport_test

import (
	"reflect"
	"sort"
	"testing"

	"abstractbft/internal/ids"
)

// payloadProcessIDs lists every process ID a wire payload may carry, with
// why. Each one is verified by a third party or names a process other than
// the sender. A message's sender is its envelope's From: Local sets it, and
// TCP delivers only what a connection's proven peer sends, so a payload field
// that restates it could only disagree with it.
var payloadProcessIDs = map[string]string{
	"core.AbortMessage.Replica":       "covered by the abort's signature, which clients check and forward as proof",
	"pbft.ViewChange.Replica":         "covered by the view change's signature; NEW-VIEW relays it",
	"authn.Authenticator.Sender":      "the client whose MACs an orderer forwards",
	"authn.AuthEntry.Receiver":        "the replica an authenticator entry is for",
	"authn.ChainAuthEntry.Signer":     "a chain authenticator entry's signer, forwarded along the chain",
	"authn.ChainAuthEntry.Receiver":   "the replica a chain authenticator entry is for",
	"msg.Request.Client":              "the request's client, whom orderers and state transfer name",
	"statesync.FetchState.BodiesFrom": "the replica designated to ship the snapshot payload",
	"statesync.State.BodiesFrom":      "echoes the designation of the FETCH-STATE answered",
	"statesync.ClientWindow.Client":   "the client whose timestamp window a snapshot holds",
	"statesync.ClientRing.Client":     "the client whose replies a snapshot holds",
}

// TestPayloadsNameNoSender walks every wire payload's exported fields by
// reflection, through pointers, slices and nested structs, and fails on a
// process ID that payloadProcessIDs does not list, or on a listed one that
// no payload carries any more. Interface fields (a shard mark's payload, a
// wrapped PBFT message) are not followed: what they carry is a wire payload
// of its own, which wirePayloads lists.
func TestPayloadsNameNoSender(t *testing.T) {
	found := make(map[string]bool)
	seen := make(map[reflect.Type]bool)
	for i, entry := range wirePayloads() {
		_, payload := auditEntry(i, entry)
		processIDFields(reflect.TypeOf(payload), "", seen, found)
	}
	var extra []string
	for name := range found {
		if _, ok := payloadProcessIDs[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		t.Errorf("wire payload field %s is a process ID; a payload's sender is its envelope's From", name)
	}
	for name := range payloadProcessIDs {
		if !found[name] {
			t.Errorf("payloadProcessIDs lists %s, which no wire payload carries", name)
		}
	}
}

var processIDType = reflect.TypeOf(ids.ProcessID(0))

// processIDFields adds to found the name of every field of t whose type is,
// or holds, a process ID; field names the field that holds t.
func processIDFields(t reflect.Type, field string, seen map[reflect.Type]bool, found map[string]bool) {
	if t == processIDType {
		found[field] = true
		return
	}
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		processIDFields(t.Elem(), field, seen, found)
	case reflect.Struct:
		if seen[t] {
			return
		}
		seen[t] = true
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				processIDFields(f.Type, t.String()+"."+f.Name, seen, found)
			}
		}
	}
}
