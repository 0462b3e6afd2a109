// The farm's service-level objectives: what "this emulation is faithful
// and on time" means, measured live. Objectives are declared once at
// manager construction against the farm's own instruments and evaluated
// on demand by /v1/slo and /v1/health.
//
// The set mirrors the failure modes the paper's design cares about:
//
//   - tick lateness: the wheel must fire deliveries near their deadline
//     (the paper's 10 ms clock interrupt); a stalled shard shows up here
//     first.
//   - delivery deadline: the share of timer fires within two granularity
//     ticks — modulation delays are only faithful if the substrate honors
//     the schedule it was given.
//   - drop accuracy: each session's observed drop rate must track its
//     trace's duration-weighted loss (the replay's ground truth).
//   - quarantine and shed rates: a farm quarantining tenants or shedding
//     load is degraded even if the survivors are on time.
package emud

import (
	"math"
	"sort"
	"time"

	"tracemod/internal/emud/pressure"
	"tracemod/internal/obs"
)

// SLO evaluation tunables.
const (
	// sloMinResolved is how many resolved packets (delivered+dropped) a
	// session needs before its drop rate is judged — below it the binomial
	// noise swamps the signal.
	sloMinResolved = 200
	// sloDropTolerance is the allowed absolute deviation of a session's
	// observed drop rate from its trace's expected loss, plus a relative
	// term scaled by the expectation (binomial spread grows with p).
	sloDropTolerance = 0.02
	sloDropRelative  = 0.25
	// sloWorstSessions caps the per-session detail in the report.
	sloWorstSessions = 10
)

// SessionSLO is one session's drop-accuracy judgment in the report.
type SessionSLO struct {
	ID        string  `json:"id"`
	Expected  float64 `json:"expected_loss"`
	Observed  float64 `json:"observed_loss"`
	Deviation float64 `json:"deviation"`
	Resolved  int64   `json:"resolved_packets"`
	OK        bool    `json:"ok"`
}

// FarmSLOReport is the /v1/slo payload: the objective evaluation plus the
// worst drop-accuracy offenders among sessions with enough traffic.
type FarmSLOReport struct {
	obs.SLOReport
	Sessions []SessionSLO `json:"sessions,omitempty"`
}

// buildSLOs declares the farm's objectives against its live instruments.
// gran is the wheel granularity actually in force (0 = exact scheduling;
// thresholds then assume the paper's default tick).
func (m *Manager) buildSLOs(gran time.Duration) *obs.SLOSet {
	tick := gran
	if tick <= 0 {
		tick = 10 * time.Millisecond
	}
	set := obs.NewSLOSet()
	set.Add(&obs.SLO{
		Name:     "wheel-tick-lateness-p99",
		Help:     "99th-percentile timer-fire lateness must stay within two ticks.",
		Kind:     obs.SLOQuantile,
		Critical: true,
		Hist:     m.wheel.FireLateness(),
		Quantile: 0.99,
		// Engine deliveries are armed on their quantized tick and fire on
		// that boundary, so they contribute only wakeup latency. Off-grid
		// timers (tuple advance, the occupancy gauge) legitimately wait up
		// to one granularity for the next boundary; the second tick is the
		// operating margin.
		Threshold: 2 * tick,
	})
	set.Add(&obs.SLO{
		Name:      "delivery-deadline-compliance",
		Help:      "Share of timer fires within two ticks of their deadline.",
		Kind:      obs.SLOCompliance,
		Hist:      m.wheel.FireLateness(),
		Threshold: 2 * tick,
		Target:    0.999,
	})
	set.Add(&obs.SLO{
		Name:   "drop-accuracy",
		Help:   "Share of sessions whose observed drop rate tracks their trace's expected loss.",
		Kind:   obs.SLORatio,
		Ratio:  m.dropAccuracyRatio,
		Target: 0.95,
	})
	set.Add(&obs.SLO{
		Name:     "quarantine-rate",
		Help:     "Share of sessions never quarantined for a panicking callback.",
		Kind:     obs.SLORatio,
		Critical: true,
		Ratio:    m.quarantineRatio,
		Target:   0.99,
	})
	set.Add(&obs.SLO{
		Name:   "admission-shed-rate",
		Help:   "Share of offered packets accepted by admission control.",
		Kind:   obs.SLORatio,
		Ratio:  m.shedRatio,
		Target: 0.95,
	})
	set.Add(&obs.SLO{
		Name:     "ingest-brownout",
		Help:     "Live ingest accepting new streams: the brownout ladder must stay below reject-streams.",
		Kind:     obs.SLORatio,
		Critical: true,
		Ratio:    m.brownoutRatio,
		Target:   1,
	})
	return set
}

// brownoutRatio is the ingest-brownout indicator: 1 while the farm
// accepts new streams, 0 from reject-streams upward. The closure reads
// the controller lazily — buildSLOs runs before the controller exists,
// and a nil controller reports Normal.
func (m *Manager) brownoutRatio() (float64, bool) {
	if m.pressure.Level() >= pressure.RejectStreams {
		return 0, true
	}
	return 1, true
}

// SLOs exposes the farm's objective set (for callers adding their own).
func (m *Manager) SLOs() *obs.SLOSet { return m.slos }

// sessionSLOs judges every session with enough resolved traffic.
func (m *Manager) sessionSLOs() []SessionSLO {
	var out []SessionSLO
	for _, s := range m.List() {
		st := s.Stats()
		resolved := st.Delivered + st.Dropped
		if resolved < sloMinResolved {
			continue
		}
		exp := s.ExpectedLoss()
		observed := float64(st.Dropped) / float64(resolved)
		dev := math.Abs(observed - exp)
		out = append(out, SessionSLO{
			ID:        s.ID,
			Expected:  exp,
			Observed:  observed,
			Deviation: dev,
			Resolved:  resolved,
			OK:        dev <= sloDropTolerance+sloDropRelative*exp,
		})
	}
	return out
}

// dropAccuracyRatio is the drop-accuracy SLO indicator: the fraction of
// judgeable sessions within tolerance. ok=false until any session has
// resolved enough packets.
func (m *Manager) dropAccuracyRatio() (float64, bool) {
	judged := m.sessionSLOs()
	if len(judged) == 0 {
		return 0, false
	}
	good := 0
	for _, j := range judged {
		if j.OK {
			good++
		}
	}
	return float64(good) / float64(len(judged)), true
}

// quarantineRatio reports the never-quarantined fraction of all sessions
// ever created.
func (m *Manager) quarantineRatio() (float64, bool) {
	m.mu.Lock()
	created := m.seq
	m.mu.Unlock()
	if created == 0 {
		return 0, false
	}
	return 1 - float64(m.quarantinedTotal.Load())/float64(created), true
}

// shedRatio reports the accepted fraction of all packets ever offered.
func (m *Manager) shedRatio() (float64, bool) {
	var accepted int64
	for _, s := range m.List() {
		accepted += s.submitted.Load()
	}
	shed := m.shedTotal.Load()
	total := accepted + shed
	if total == 0 {
		return 0, false
	}
	return float64(accepted) / float64(total), true
}

// SLOReport evaluates every objective and attaches the worst
// drop-accuracy offenders (violators first, then largest deviation).
func (m *Manager) SLOReport() FarmSLOReport {
	rep := FarmSLOReport{SLOReport: m.slos.Evaluate()}
	judged := m.sessionSLOs()
	sort.Slice(judged, func(i, j int) bool {
		if judged[i].OK != judged[j].OK {
			return !judged[i].OK
		}
		return judged[i].Deviation > judged[j].Deviation
	})
	if len(judged) > sloWorstSessions {
		judged = judged[:sloWorstSessions]
	}
	rep.Sessions = judged
	return rep
}
