package serve

import (
	"fmt"
	"time"

	"github.com/pythia-db/pythia/internal/fault"
)

// Options are the server's resilience knobs. The zero value of
// each field selects its default, and a negative value is rejected by
// Normalize — except CacheEntries, the one field with an off-switch. New
// normalizes for you.
type Options struct {
	// RequestTimeout bounds model inference per request; an expired budget
	// answers 504 deadline_exceeded. Default 5s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps the request body; larger posts answer 413. Default
	// 1 MiB.
	MaxBodyBytes int64
	// Fault, when non-nil, injects transient model errors at the injector's
	// Serve site — the deterministic chaos hook the model-error tests and
	// drills run against.
	Fault *fault.Injector
	// CacheEntries bounds the plan-fingerprint prediction cache; identical
	// plans answer from it without running inference. Default 4096 entries;
	// negative disables caching.
	CacheEntries int
	// QueueDepth bounds the concurrently admitted requests — the serving
	// tier's one admission point. A request the full queue refuses is shed
	// with 503 + Retry-After instead of queueing behind a busy model. Default
	// 32.
	QueueDepth int
	// SnapshotPath is the snapshot file POST /v1/admin/reload and SIGHUP
	// reload from (a pythia.System.Save bundle), and the only one they open.
	// Empty means reloads answer 400 no_snapshot.
	SnapshotPath string
}

// Normalize resolves zero fields to their defaults and rejects negative ones
// (CacheEntries excepted: negative means no cache and is kept as given). It
// is what New applies; callers that want
// to fail before building a server (pythia-serve, before it trains) call it
// themselves first. Idempotent.
func (o Options) Normalize() (Options, error) {
	if o.RequestTimeout < 0 || o.MaxBodyBytes < 0 || o.QueueDepth < 0 {
		return o, fmt.Errorf("serve: negative option (RequestTimeout %s, MaxBodyBytes %d, QueueDepth %d): 0 selects the default, and only CacheEntries has an off-switch",
			o.RequestTimeout, o.MaxBodyBytes, o.QueueDepth)
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 4096
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 32
	}
	return o, nil
}
