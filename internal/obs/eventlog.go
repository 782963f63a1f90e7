package obs

// EventLog is a Recorder that retains the full event stream in record order,
// for tests and tools that assert on individual events (which page was
// prefetched when, which executor read stalled on the window, …). Appending
// amortizes allocation; this recorder is the explicit opt-in to paying for
// retention.
type EventLog struct {
	events []Event
}

// NewEventLog returns an empty, unbounded event log.
func NewEventLog() *EventLog { return &EventLog{} }

// Record implements Recorder.
func (l *EventLog) Record(e Event) { l.events = append(l.events, e) }

// Len returns the number of retained events.
func (l *EventLog) Len() int { return len(l.events) }

// Events returns the retained events in record order. The slice is owned by
// the log; callers must not mutate it.
func (l *EventLog) Events() []Event { return l.events }
