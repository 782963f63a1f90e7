package quality

import "github.com/pythia-db/pythia/internal/obs"

// DriftState is the hysteresis state machine's level: ok < warning < alarm.
type DriftState uint8

const (
	// DriftOK: the live window is statistically consistent with the baseline.
	DriftOK DriftState = iota
	// DriftWarning: divergence crossed the warn threshold — the mix is
	// shifting; retraining evidence is accumulating.
	DriftWarning
	// DriftAlarm: divergence crossed the alarm threshold — the live stream
	// no longer resembles what the models were trained on.
	DriftAlarm
)

var driftStateNames = [...]string{"ok", "warning", "alarm"}

// String returns the state's stable lowercase name (used as a /stats value
// and a report field).
func (s DriftState) String() string {
	if int(s) < len(driftStateNames) {
		return driftStateNames[s]
	}
	return "unknown"
}

// Value returns the state as a gauge (ok=0, warning=1, alarm=2), the
// /metrics companion of String.
func (s DriftState) Value() int { return int(s) }

// DriftEventKind maps a post-transition state to the obs event that
// announces it.
//
//pythia:noalloc
func DriftEventKind(to DriftState) obs.Kind {
	switch to {
	case DriftAlarm:
		return obs.DriftAlarm
	case DriftWarning:
		return obs.DriftWarning
	default:
		return obs.DriftRecovered
	}
}

// Transition is the outcome of one detector evaluation. Changed is false for
// the (overwhelmingly common) evaluations that hold state; callers emit
// obs/span events only on changes.
type Transition struct {
	// Evaluated is true when the detector ran: Monitor.Observe returns the
	// zero Transition for the plans between two evaluations.
	Evaluated bool
	Changed   bool
	From      DriftState
	To        DriftState
	// Score is the divergence that drove the evaluation.
	Score float64
}

// Options configure drift detection. The zero value selects the documented
// default, so there is no Normalize error path.
type Options struct {
	// EvalEvery is the drift evaluation cadence: one divergence computation
	// (and one decay of the live window) per EvalEvery observed plans.
	// Default 16.
	EvalEvery int
}

// The detector's thresholds. Nothing sets them per deployment: PSI is
// scale-free, and the template mixes this repo serves sit near 0 when stable.
const (
	// warnPSI raises ok→warning when the divergence reaches it (the
	// conventional "significant shift" PSI reading).
	warnPSI = 0.25
	// alarmPSI raises →alarm.
	alarmPSI = 0.5
	// clearAfter is the hysteresis on the way down: how many consecutive
	// sub-warn evaluations step the state down one level.
	clearAfter = 3
)

// Detector is the hysteresis state machine over a divergence-score stream.
// Raising is immediate (one breaching evaluation moves ok→warning or
// →alarm); clearing is slow (clearAfter consecutive sub-warn evaluations
// step down one level at a time) — a flapping mix alarms once, not once per
// window. Transitions are purely evaluation-count driven, which is what keeps
// replay-side drift detection deterministic.
//
// Detector is not synchronized; the Monitor's owner serializes access (the
// serve tier wraps it in a mutex).
type Detector struct {
	state       DriftState
	clearStreak int

	evals      uint64
	warnings   uint64
	alarms     uint64
	recoveries uint64
	lastScore  float64
}

// Evaluate folds one divergence score into the state machine.
//
//pythia:noalloc
func (d *Detector) Evaluate(score float64) Transition {
	d.evals++
	d.lastScore = score
	target := DriftOK
	switch {
	case score >= alarmPSI:
		target = DriftAlarm
	case score >= warnPSI:
		target = DriftWarning
	}
	tr := Transition{Evaluated: true, From: d.state, To: d.state, Score: score}
	switch {
	case target > d.state:
		// Raise immediately, possibly skipping warning entirely.
		d.clearStreak = 0
		tr.To, tr.Changed = target, true
		d.state = target
		switch target {
		case DriftAlarm:
			d.alarms++
		case DriftWarning:
			d.warnings++
		}
	case target < d.state:
		d.clearStreak++
		if d.clearStreak >= clearAfter {
			d.clearStreak = 0
			d.state--
			tr.To, tr.Changed = d.state, true
			if d.state == DriftOK {
				d.recoveries++
			}
		}
	default:
		d.clearStreak = 0
	}
	return tr
}

// State is the current drift level.
func (d *Detector) State() DriftState { return d.state }

// DriftStats is the detector's counter snapshot for /stats and reports.
type DriftStats struct {
	State       string  `json:"state"`
	StateValue  int     `json:"-"`
	Score       float64 `json:"score"`
	Evaluations uint64  `json:"evaluations"`
	Warnings    uint64  `json:"warnings"`
	Alarms      uint64  `json:"alarms"`
	Recoveries  uint64  `json:"recoveries"`
}

// Stats snapshots the detector.
func (d *Detector) Stats() DriftStats {
	return DriftStats{
		State:       d.state.String(),
		StateValue:  d.state.Value(),
		Score:       d.lastScore,
		Evaluations: d.evals,
		Warnings:    d.warnings,
		Alarms:      d.alarms,
		Recoveries:  d.recoveries,
	}
}

// Monitor streams plans against a frozen training baseline: each plan's
// tokens land in a decaying live Profile, and every EvalEvery plans the
// baseline↔live divergence runs through the hysteresis detector. Observe is
// allocation-free; the caller turns returned Transitions into obs events
// and span marks.
type Monitor struct {
	base      Profile
	live      Profile
	det       Detector
	evalEvery int
	sinceEval int
}

// NewMonitor builds a monitor against base. A nil base returns a nil
// monitor — drift detection off; all methods are nil-safe.
func NewMonitor(base *Profile, o Options) *Monitor {
	if base == nil {
		return nil
	}
	if o.EvalEvery == 0 {
		o.EvalEvery = 16
	}
	return &Monitor{base: *base, evalEvery: o.EvalEvery}
}

// Observe folds one plan's serialized tokens into the live window and, at
// the evaluation cadence, scores it against the baseline. The zero
// Transition means "nothing changed".
//
//pythia:noalloc
func (m *Monitor) Observe(tokens []string) Transition {
	if m == nil {
		return Transition{}
	}
	m.live.ObserveTokens(tokens)
	m.sinceEval++
	if m.sinceEval < m.evalEvery {
		return Transition{}
	}
	m.sinceEval = 0
	tr := m.det.Evaluate(Divergence(&m.base, &m.live))
	m.live.Tokens.decay()
	m.live.Prints.decay()
	return tr
}

// State is the current drift level (DriftOK for a nil monitor).
func (m *Monitor) State() DriftState {
	if m == nil {
		return DriftOK
	}
	return m.det.State()
}

// Stats snapshots the detector (zero value for a nil monitor, with state
// "ok" — drift-off reads as stable, not as a fourth state).
func (m *Monitor) Stats() DriftStats {
	if m == nil {
		return DriftStats{State: DriftOK.String()}
	}
	return m.det.Stats()
}

// Baseline returns a copy of the frozen baseline profile.
func (m *Monitor) Baseline() *Profile {
	if m == nil {
		return nil
	}
	return m.base.Clone()
}
