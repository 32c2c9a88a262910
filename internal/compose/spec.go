package compose

import (
	"fmt"
	"strconv"
	"strings"

	"abstractbft/internal/core"
)

// Stage is one step of a switching schedule: a registered protocol, run for
// Repeat consecutive instance numbers per cycle.
type Stage struct {
	// Protocol is the registered descriptor name.
	Protocol string
	// Repeat is how many consecutive instances of the protocol one cycle
	// contains (values below 1 mean 1).
	Repeat int
}

func (s Stage) repeat() int {
	if s.Repeat < 1 {
		return 1
	}
	return s.Repeat
}

// Spec is a declarative switching schedule: the ordered stages cycle forever
// (instance 1 runs the first stage, and after the last stage the schedule
// wraps around), so every abort has a next instance and the composition
// commits every request eventually.
type Spec struct {
	// Name is the registered name of the schedule ("" for ad-hoc specs).
	Name string
	// Stages are the cycle's stages in switching order.
	Stages []Stage
}

// Parse parses the Spec DSL. The grammar is
//
//	spec  := name | stage ("," stage)*
//	stage := protocol ("*" repeat)?
//
// where name is a schedule registered with RegisterSpec, protocol is a
// descriptor registered with Register, and repeat is a positive integer
// ("zlight*2,backup" runs two ZLight instances per Backup). The stage list
// cycles: after the last stage the schedule wraps to the first.
func Parse(dsl string) (Spec, error) {
	dsl = strings.TrimSpace(dsl)
	if dsl == "" {
		return Spec{}, fmt.Errorf("compose: empty composition spec")
	}
	if s, ok := SpecByName(dsl); ok {
		return s, nil
	}
	var spec Spec
	for _, tok := range strings.Split(dsl, ",") {
		tok = strings.TrimSpace(tok)
		name, repeat := tok, 1
		if i := strings.IndexByte(tok, '*'); i >= 0 {
			name = strings.TrimSpace(tok[:i])
			n, err := strconv.Atoi(strings.TrimSpace(tok[i+1:]))
			if err != nil || n < 1 {
				return Spec{}, fmt.Errorf("compose: bad repeat in stage %q", tok)
			}
			repeat = n
		}
		if name == "" {
			return Spec{}, fmt.Errorf("compose: empty stage in spec %q", dsl)
		}
		spec.Stages = append(spec.Stages, Stage{Protocol: name, Repeat: repeat})
	}
	return spec, spec.Validate()
}

// MustParse is Parse, panicking on error (for compile-time-constant specs).
func MustParse(dsl string) Spec {
	s, err := Parse(dsl)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks that every stage names a registered protocol and that at
// least one stage is strong — without one, a composition under failures
// would abort through every instance forever and Termination would not hold.
func (s Spec) Validate() error {
	if len(s.Stages) == 0 {
		return fmt.Errorf("compose: spec has no stages")
	}
	strong := false
	for _, st := range s.Stages {
		d, ok := Lookup(st.Protocol)
		if !ok {
			return fmt.Errorf("compose: unknown protocol %q (registered: %s)",
				st.Protocol, strings.Join(Protocols(), ", "))
		}
		if d.Strong() {
			strong = true
		}
	}
	if !strong {
		return fmt.Errorf("compose: spec %q has no strong-progress stage (add one of the always-k protocols, e.g. backup)", s.String())
	}
	return nil
}

// String renders the spec in DSL form.
func (s Spec) String() string {
	var b strings.Builder
	for i, st := range s.Stages {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(st.Protocol)
		if st.repeat() > 1 {
			fmt.Fprintf(&b, "*%d", st.repeat())
		}
	}
	return b.String()
}

// CycleLen returns the number of instances one cycle of the schedule spans.
func (s Spec) CycleLen() int {
	n := 0
	for _, st := range s.Stages {
		n += st.repeat()
	}
	return n
}

// slot returns the 0-based position of instance id within the expanded
// cycle. Instance numbering starts at 1; the zero InstanceID (not a valid
// instance) is clamped to the first slot rather than underflowing.
func (s Spec) slot(id core.InstanceID) int {
	if id == 0 {
		return 0
	}
	return int((uint64(id) - 1) % uint64(s.CycleLen()))
}

// ProtocolAt returns the protocol name instance id runs under this schedule.
func (s Spec) ProtocolAt(id core.InstanceID) string {
	slot := s.slot(id)
	for _, st := range s.Stages {
		if slot < st.repeat() {
			return st.Protocol
		}
		slot -= st.repeat()
	}
	return s.Stages[len(s.Stages)-1].Protocol
}

// StrongIndex returns the number of strong-progress instances with a lower
// instance number than id: the 0-based "Backup index" that parameterizes the
// exponential K policy. It is derived from the schedule (full cycles times
// the per-cycle strong count, plus the strong stages of the partial prefix),
// never from a hardcoded role map.
func (s Spec) StrongIndex(id core.InstanceID) int {
	if id == 0 {
		// Not a valid instance (numbering starts at 1): no strong instances
		// precede it.
		return 0
	}
	perCycle := 0
	strongAt := make([]bool, 0, s.CycleLen())
	for _, st := range s.Stages {
		d, ok := Lookup(st.Protocol)
		strong := ok && d.Strong()
		for r := 0; r < st.repeat(); r++ {
			strongAt = append(strongAt, strong)
			if strong {
				perCycle++
			}
		}
	}
	cycle := uint64(s.CycleLen())
	full := (uint64(id) - 1) / cycle
	n := int(full) * perCycle
	for slot := uint64(0); slot < (uint64(id)-1)%cycle; slot++ {
		if strongAt[slot] {
			n++
		}
	}
	return n
}
