package quality

// DriftState is the drift level a divergence score reads: ok < warning < alarm.
type DriftState uint8

const (
	// DriftOK: the live window is statistically consistent with the baseline.
	DriftOK DriftState = iota
	// DriftWarning: divergence reached the warn threshold — the mix is
	// shifting; retraining evidence is accumulating.
	DriftWarning
	// DriftAlarm: divergence reached the alarm threshold — the live stream
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

// Options configure drift detection. The zero value selects the documented
// default, so there is no Normalize error path.
type Options struct {
	// EvalEvery is the drift evaluation cadence: one divergence computation
	// (and one decay of the live window) per EvalEvery observed plans.
	// Default 16.
	EvalEvery int
}

// The level thresholds. Nothing sets them per deployment: PSI is scale-free,
// and the template mixes this repo serves sit near 0 when stable.
const (
	// warnPSI is the conventional "significant shift" PSI reading.
	warnPSI  = 0.25
	alarmPSI = 0.5
)

// Level is the drift level one divergence score reads. It holds no state:
// the live window's decay is the only smoothing, and hysteresis over the
// exported gauge belongs in the alert rule that reads it.
//
//pythia:noalloc
func Level(score float64) DriftState {
	switch {
	case score >= alarmPSI:
		return DriftAlarm
	case score >= warnPSI:
		return DriftWarning
	}
	return DriftOK
}

// DriftStats is a monitor's snapshot for /stats and reports: the level and
// score of the last evaluation, and how many evaluations ran.
type DriftStats struct {
	State       string  `json:"state"`
	StateValue  int     `json:"-"`
	Score       float64 `json:"score"`
	Evaluations uint64  `json:"evaluations"`
}

// Monitor streams plans against a frozen training baseline: each plan's
// tokens land in a decaying live Profile, and every EvalEvery plans the
// baseline↔live divergence is scored. Observe is allocation-free.
//
// Monitor is not synchronized; its owner serializes access (the serve tier
// wraps it in a mutex).
type Monitor struct {
	base      Profile
	live      Profile
	evalEvery int
	sinceEval int
	evals     uint64
	score     float64
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
// the evaluation cadence, scores it against the baseline and halves the
// window. It reports whether this plan ran an evaluation.
//
//pythia:noalloc
func (m *Monitor) Observe(tokens []string) bool {
	if m == nil {
		return false
	}
	m.live.ObserveTokens(tokens)
	m.sinceEval++
	if m.sinceEval < m.evalEvery {
		return false
	}
	m.sinceEval = 0
	m.evals++
	m.score = Divergence(&m.base, &m.live)
	m.live.Tokens.decay()
	m.live.Prints.decay()
	return true
}

// Stats snapshots the monitor (state "ok" and zeros for a nil monitor —
// drift-off reads as stable, not as a fourth state).
func (m *Monitor) Stats() DriftStats {
	if m == nil {
		return DriftStats{State: DriftOK.String()}
	}
	l := Level(m.score)
	return DriftStats{State: l.String(), StateValue: l.Value(), Score: m.score, Evaluations: m.evals}
}
