package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"github.com/pythia-db/pythia/internal/storage"
)

// trackSlots bounds the prediction tracker: the last trackSlots predictions
// are correlatable via /v1/feedback. A slot is keyed by id modulo the ring
// size, so an id naturally expires once trackSlots newer predictions have
// been issued — no sweeper, no timestamps, O(1) insert and take.
const trackSlots = 4096

// predRecord remembers one served prediction long enough for its feedback to
// arrive: the issued page set, and the workload that answered (echoed in the
// feedback response).
type predRecord struct {
	id       uint64
	workload string
	pages    []storage.PageID
}

// predTracker is the fixed-size ring of recent predictions behind
// /v1/feedback. Insert happens on the predict path — one mutex acquisition
// and one slot write, no allocation beyond retaining the already-built page
// slice — and take consumes the slot, so each prediction accepts exactly one
// feedback report.
type predTracker struct {
	mu    sync.Mutex
	next  uint64
	slots [trackSlots]predRecord
}

// note records one served prediction and returns its wire id ("p-<n>").
func (t *predTracker) note(workload string, pages []storage.PageID) string {
	t.mu.Lock()
	t.next++
	id := t.next
	t.slots[id%trackSlots] = predRecord{id: id, workload: workload, pages: pages}
	t.mu.Unlock()
	return fmt.Sprintf("p-%d", id)
}

// take resolves a wire id and consumes its slot. ok is false for a malformed
// id, an id that was never issued, one already consumed, or one overwritten
// by trackSlots newer predictions.
func (t *predTracker) take(wire string) (predRecord, bool) {
	num, found := strings.CutPrefix(wire, "p-")
	if !found {
		return predRecord{}, false
	}
	id, err := strconv.ParseUint(num, 10, 64)
	if err != nil || id == 0 {
		return predRecord{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	slot := &t.slots[id%trackSlots]
	if slot.id != id {
		return predRecord{}, false
	}
	rec := *slot
	*slot = predRecord{}
	return rec, true
}
