package serve

import (
	"errors"
	"io"
	"net/http"
	"os"
	"time"

	corepythia "github.com/pythia-db/pythia/internal/pythia"
)

// Admin error codes of the JSON error envelope.
const (
	CodeNoSnapshot      = "no_snapshot"
	CodeReloadFailed    = "reload_failed"
	CodeSnapshotCorrupt = "snapshot_corrupt"
)

// reloadResponse reports a completed model swap.
type reloadResponse struct {
	Status     string  `json:"status"`
	Path       string  `json:"path"`
	Generation uint64  `json:"generation"`
	Swaps      uint64  `json:"swaps"`
	DurationMS float64 `json:"duration_ms"`
}

// ReloadSnapshot performs a zero-downtime model swap from Options.SnapshotPath
// (a pythia.System.Save bundle): a standby generation decodes the snapshot
// and the serving pointer swings atomically. It is the programmatic entry
// behind both POST /v1/admin/reload and pythia-serve's SIGHUP handler, and
// the configured path is the only file either one opens.
func (s *Server) ReloadSnapshot() (InfStatus, error) {
	if s.opts.SnapshotPath == "" {
		return InfStatus{}, errNoSnapshot
	}
	f, err := os.Open(s.opts.SnapshotPath)
	if err != nil {
		return InfStatus{}, err
	}
	defer f.Close()
	if err := s.pool.Swap(f); err != nil {
		return InfStatus{}, err
	}
	return s.pool.Status(), nil
}

// handleReload is POST /v1/admin/reload: swap the serving models from the
// server's -snapshot file without dropping a request. The body must be empty,
// and a non-empty one is refused before anything is opened: a client of the
// public listener names no file. It passes no admission point: an operator
// must be able to roll models on an overloaded server.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !s.decodePost(w, r, "POST an empty body to reload the -snapshot file", func(body io.Reader) error {
		b, err := io.ReadAll(body)
		if err == nil && len(b) > 0 {
			err = errors.New("reload takes an empty body: it reads only the server's -snapshot file")
		}
		return err
	}) {
		return
	}
	start := time.Now()
	st, err := s.ReloadSnapshot()
	if err != nil {
		switch {
		case errors.Is(err, errNoSnapshot):
			writeError(w, http.StatusBadRequest, CodeNoSnapshot,
				"no snapshot path configured; start the server with -snapshot")
		case errors.Is(err, corepythia.ErrSnapshotCorrupt), errors.Is(err, corepythia.ErrSnapshotVersion):
			// The swap already rolled back; the old generation keeps serving.
			// 422: the request was well-formed but the named snapshot is not
			// processable — replace the file, not the request.
			writeError(w, http.StatusUnprocessableEntity, CodeSnapshotCorrupt, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, CodeReloadFailed, err.Error())
		}
		return
	}
	writeJSON(w, reloadResponse{
		Status:     "ok",
		Path:       s.opts.SnapshotPath,
		Generation: st.Generation,
		Swaps:      st.Swaps,
		DurationMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}
