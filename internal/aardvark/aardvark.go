// Package aardvark implements the part of the Aardvark robust BFT protocol
// (Clement et al.) that R-Aliph uses in §6: monitoring the primary's ordering
// throughput against an adaptive expectation and changing views when the
// primary underperforms. Aardvark's client blacklisting and per-client
// traffic policing are not modelled.
//
// The package provides the primary Monitor and an ordering-engine factory
// (Orderer) that R-Aliph plugs into Backup (Principle P1 of §6.3): a PBFT
// engine whose primary is replaced when its throughput falls below the
// monitor's expectation.
package aardvark

import (
	"time"

	"abstractbft/internal/backup"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/pbft"
)

// MonitorConfig tunes the primary throughput monitoring.
type MonitorConfig struct {
	// Window is the observation window over which throughput is computed.
	Window time.Duration
	// ExpectationFactor is the fraction of the best observed throughput the
	// current primary must sustain (0.9 in the paper).
	ExpectationFactor float64
	// RaiseFactor periodically raises the expectation (0.01 in the paper).
	RaiseFactor float64
	// GraceWindows is the number of windows after a view change during which
	// the new primary is not judged.
	GraceWindows int
}

func (c MonitorConfig) withDefaults() MonitorConfig {
	if c.Window <= 0 {
		c.Window = 250 * time.Millisecond
	}
	if c.ExpectationFactor <= 0 {
		c.ExpectationFactor = 0.9
	}
	if c.RaiseFactor < 0 {
		c.RaiseFactor = 0.01
	}
	if c.GraceWindows <= 0 {
		c.GraceWindows = 2
	}
	return c
}

// Monitor tracks the primary's ordering throughput and decides when to change
// views; it also exposes the throughput expectation R-Aliph reuses when it
// runs Quorum or Chain (Principle P2 of §6.3).
type Monitor struct {
	cfg MonitorConfig

	windowStart time.Time
	windowCount uint64
	bestRate    float64
	expectation float64
	grace       int
	lastView    uint64
	now         func() time.Time
}

// NewMonitor creates a throughput monitor.
func NewMonitor(cfg MonitorConfig) *Monitor {
	c := cfg.withDefaults()
	return &Monitor{cfg: c, now: time.Now, grace: c.GraceWindows}
}

// RecordDelivery registers n delivered requests.
func (m *Monitor) RecordDelivery(n int) { m.windowCount += uint64(n) }

// Expectation returns the current throughput expectation in requests/second.
func (m *Monitor) Expectation() float64 { return m.expectation }

// Observe closes the current window if it elapsed and reports whether the
// primary should be replaced: the window's rate was below the expectation
// while requests were pending.
func (m *Monitor) Observe(e *pbft.Engine) bool {
	now := m.now()
	if m.windowStart.IsZero() {
		m.windowStart = now
		return false
	}
	if e.View() != m.lastView {
		m.lastView = e.View()
		m.grace = m.cfg.GraceWindows
		m.windowStart = now
		m.windowCount = 0
		return false
	}
	if now.Sub(m.windowStart) < m.cfg.Window {
		return false
	}
	rate := float64(m.windowCount) / now.Sub(m.windowStart).Seconds()
	m.windowStart = now
	m.windowCount = 0
	if rate > m.bestRate {
		m.bestRate = rate
	}
	m.expectation = m.cfg.ExpectationFactor * m.bestRate
	// Periodically raise the expectation so a slowly degrading primary is
	// eventually replaced.
	m.bestRate *= 1 + m.cfg.RaiseFactor
	if m.grace > 0 {
		m.grace--
		return false
	}
	if rate < m.expectation && e.PendingKnown() > 0 {
		return true
	}
	return false
}

// orderer adapts a monitored PBFT engine to backup.Orderer for R-Aliph.
type orderer struct {
	engine  *pbft.Engine
	monitor *Monitor
}

// SubmitRequest implements backup.Orderer.
func (o *orderer) SubmitRequest(req msg.Request) { o.engine.SubmitRequest(req) }

// HandleMessage implements backup.Orderer.
func (o *orderer) HandleMessage(from ids.ProcessID, m any) { o.engine.HandleMessage(from, m) }

// Tick implements backup.Orderer: it drives PBFT's view-change timers and the
// Aardvark throughput monitoring.
func (o *orderer) Tick() {
	o.engine.Tick()
	if o.monitor.Observe(o.engine) {
		o.engine.StartViewChange(o.engine.View() + 1)
	}
}

// Expectation exposes the monitor's throughput expectation.
func (o *orderer) Expectation() float64 { return o.monitor.Expectation() }

// ExpectationSource is implemented by orderers that expose a throughput
// expectation (R-Aliph reads it to set the expectations of Quorum and Chain).
type ExpectationSource interface {
	Expectation() float64
}

// Orderer returns a backup.OrdererFactory that builds Aardvark-monitored PBFT
// engines; R-Aliph uses it as Backup's ordering protocol (Principle P1).
func Orderer(batchSize int, viewChangeTimeout time.Duration, mcfg MonitorConfig, register func(inst core.InstanceID, src ExpectationSource)) backup.OrdererFactory {
	if batchSize <= 0 {
		batchSize = 8
	}
	if viewChangeTimeout <= 0 {
		viewChangeTimeout = 500 * time.Millisecond
	}
	return func(h *host.Host, inst core.InstanceID, send func(to ids.ProcessID, m any), deliver func([]msg.Request)) backup.Orderer {
		monitor := NewMonitor(mcfg)
		var o *orderer
		engine := pbft.NewEngine(pbft.EngineConfig{
			Cluster:           h.Cluster(),
			Replica:           h.ID(),
			Keys:              h.Keys(),
			Send:              send,
			Deliver:           func(batch []msg.Request) { monitor.RecordDelivery(len(batch)); deliver(batch) },
			BatchSize:         batchSize,
			ViewChangeTimeout: viewChangeTimeout,
			Ops:               h.Ops(),
		})
		o = &orderer{engine: engine, monitor: monitor}
		if register != nil {
			register(inst, o)
		}
		return o
	}
}
