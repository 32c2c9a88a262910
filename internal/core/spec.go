package core

import (
	"fmt"
	"sync"

	"abstractbft/internal/authn"
	"abstractbft/internal/history"
	"abstractbft/internal/msg"
)

// SpecChecker validates executions against the Abstract specification (§3.3).
// Test harnesses record invocation and indication events (with history
// instrumentation enabled so that commit indications carry their commit
// histories) and then call Check, which verifies:
//
//   - Validity: no request appears twice in a commit/abort history, and every
//     request in a history was invoked or appears in a valid init history.
//   - Commit Order: the commit histories of an instance are totally ordered
//     by the prefix relation.
//   - Abort Order: every commit history of an instance is a prefix of every
//     abort history of that instance.
//   - Init Order: the longest common prefix of the init histories used for an
//     instance is a prefix of every commit/abort history of that instance.
//   - Composition order: commit histories are totally ordered by prefix
//     across all instances of the composition (the consequence of the
//     composability theorem that guarantees one-copy semantics).
//
// Termination and Progress are timing properties checked directly by the
// tests (a run that hangs fails by timeout).
//
// Histories sit at absolute positions: a commit history from 0, an abort or
// init history from its base checkpoint, below which nothing is compared.
type SpecChecker struct {
	mu sync.Mutex

	invoked map[authn.Digest]msg.RequestID
	commits map[InstanceID][]history.ExtractResult
	aborts  map[InstanceID][]history.ExtractResult
	inits   map[InstanceID][]history.ExtractResult

	// replies maps request digest -> application reply digest, to check that
	// all commits of the same request return the same reply.
	replies map[authn.Digest]authn.Digest
	errs    []error
}

// NewSpecChecker returns an empty checker.
func NewSpecChecker() *SpecChecker {
	return &SpecChecker{
		invoked: make(map[authn.Digest]msg.RequestID),
		commits: make(map[InstanceID][]history.ExtractResult),
		aborts:  make(map[InstanceID][]history.ExtractResult),
		inits:   make(map[InstanceID][]history.ExtractResult),
		replies: make(map[authn.Digest]authn.Digest),
	}
}

// RecordInvoke records that a (correct) client invoked req.
func (s *SpecChecker) RecordInvoke(req msg.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invoked[req.Digest()] = req.ID()
}

// RecordInit records that an instance was invoked with the given init
// history.
func (s *SpecChecker) RecordInit(inst InstanceID, init *InitHistory) {
	if init == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inits[inst] = append(s.inits[inst], history.ExtractResult{BaseSeq: init.Extract.BaseSeq, Suffix: init.Extract.Suffix.Clone()})
}

// RecordCommit records a commit indication with its instrumented commit
// history (every position from 0 on; see host.Host.InstrumentedHistory).
func (s *SpecChecker) RecordCommit(inst InstanceID, req msg.Request, reply []byte, hist history.DigestHistory) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(hist) == 0 {
		s.errs = append(s.errs, fmt.Errorf("commit of %v on instance %d without instrumented history", req.ID(), inst))
		return
	}
	if !hist.Contains(req.Digest()) {
		s.errs = append(s.errs, fmt.Errorf("commit history of %v on instance %d does not contain the request", req.ID(), inst))
	}
	rd := req.Digest()
	repd := authn.Hash(reply)
	if prev, ok := s.replies[rd]; ok && prev != repd {
		s.errs = append(s.errs, fmt.Errorf("request %v committed with two different replies", req.ID()))
	}
	s.replies[rd] = repd
	s.commits[inst] = append(s.commits[inst], history.ExtractResult{Suffix: hist.Clone()})
}

// RecordAbort records an abort indication with its abort history.
func (s *SpecChecker) RecordAbort(inst InstanceID, req msg.Request, abortHist history.ExtractResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aborts[inst] = append(s.aborts[inst], history.ExtractResult{BaseSeq: abortHist.BaseSeq, Suffix: abortHist.Suffix.Clone()})
}

// prefixOf reports whether history a ends no later than history b and
// agrees with it on every position both name.
func prefixOf(a, b history.ExtractResult) bool {
	if a.TotalLen() > b.TotalLen() {
		return false
	}
	for p := max(a.BaseSeq, b.BaseSeq); p < a.TotalLen(); p++ {
		if a.Suffix[p-a.BaseSeq] != b.Suffix[p-b.BaseSeq] {
			return false
		}
	}
	return true
}

// Errors returns the list of violations detected so far (including those
// found by Check).
func (s *SpecChecker) Errors() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.errs...)
}

// Check runs all the specification checks over the recorded events and
// returns the list of violations (empty when the execution satisfies the
// specification).
func (s *SpecChecker) Check() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	errs := append([]error(nil), s.errs...)

	instances := make(map[InstanceID]bool)
	for i := range s.commits {
		instances[i] = true
	}
	for i := range s.aborts {
		instances[i] = true
	}

	for inst := range instances {
		errs = append(errs, s.checkValidity(inst)...)
		errs = append(errs, s.checkCommitOrder(inst)...)
		errs = append(errs, s.checkAbortOrder(inst)...)
		errs = append(errs, s.checkInitOrder(inst)...)
	}
	errs = append(errs, s.checkCompositionOrder()...)
	return errs
}

func (s *SpecChecker) checkValidity(inst InstanceID) []error {
	var errs []error
	validFromInit := make(map[authn.Digest]bool)
	for _, ih := range s.inits[inst] {
		for _, d := range ih.Suffix {
			validFromInit[d] = true
		}
	}
	check := func(kind string, hists []history.ExtractResult) {
		for _, h := range hists {
			seen := make(map[authn.Digest]bool)
			for _, d := range h.Suffix {
				if seen[d] {
					errs = append(errs, fmt.Errorf("validity: duplicate request in %s history of instance %d", kind, inst))
					break
				}
				seen[d] = true
				if _, invoked := s.invoked[d]; !invoked && !validFromInit[d] {
					errs = append(errs, fmt.Errorf("validity: request %v in %s history of instance %d was never invoked nor part of an init history", d, kind, inst))
				}
			}
		}
	}
	check("commit", s.commits[inst])
	check("abort", s.aborts[inst])
	return errs
}

func (s *SpecChecker) checkCommitOrder(inst InstanceID) []error {
	var errs []error
	hists := s.commits[inst]
	for i := 0; i < len(hists); i++ {
		for j := i + 1; j < len(hists); j++ {
			if !prefixOf(hists[i], hists[j]) && !prefixOf(hists[j], hists[i]) {
				errs = append(errs, fmt.Errorf("commit order: commit histories %d and %d of instance %d are not prefix-related", i, j, inst))
			}
		}
	}
	return errs
}

func (s *SpecChecker) checkAbortOrder(inst InstanceID) []error {
	var errs []error
	for ci, ch := range s.commits[inst] {
		for ai, ah := range s.aborts[inst] {
			if !prefixOf(ch, ah) {
				errs = append(errs, fmt.Errorf("abort order: commit history %d of instance %d is not a prefix of abort history %d", ci, inst, ai))
			}
		}
	}
	return errs
}

func (s *SpecChecker) checkInitOrder(inst InstanceID) []error {
	var errs []error
	inits := s.inits[inst]
	if len(inits) == 0 {
		return nil
	}
	// The longest common prefix of the init histories, from the highest base
	// among them on.
	var lcp history.ExtractResult
	for _, ih := range inits {
		lcp.BaseSeq = max(lcp.BaseSeq, ih.BaseSeq)
	}
	tails := make([]history.DigestHistory, len(inits))
	for i, ih := range inits {
		tails[i] = ih.Suffix[min(lcp.BaseSeq-ih.BaseSeq, uint64(len(ih.Suffix))):]
	}
	lcp.Suffix = history.LongestCommonPrefix(tails...)
	for ci, ch := range s.commits[inst] {
		if !prefixOf(lcp, ch) {
			errs = append(errs, fmt.Errorf("init order: LCP of init histories of instance %d is not a prefix of commit history %d", inst, ci))
		}
	}
	for ai, ah := range s.aborts[inst] {
		if !prefixOf(lcp, ah) {
			errs = append(errs, fmt.Errorf("init order: LCP of init histories of instance %d is not a prefix of abort history %d", inst, ai))
		}
	}
	return errs
}

func (s *SpecChecker) checkCompositionOrder() []error {
	var errs []error
	var all []history.ExtractResult
	var tags []string
	for inst, hists := range s.commits {
		for i, h := range hists {
			all = append(all, h)
			tags = append(tags, fmt.Sprintf("instance %d commit %d", inst, i))
		}
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if !prefixOf(all[i], all[j]) && !prefixOf(all[j], all[i]) {
				errs = append(errs, fmt.Errorf("composition order: %s and %s are not prefix-related", tags[i], tags[j]))
			}
		}
	}
	return errs
}
