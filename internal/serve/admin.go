package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

// reloadRequest is the optional POST /v1/admin/reload body. An absent or
// empty body reloads from the server's configured SnapshotPath.
type reloadRequest struct {
	// Path overrides the configured snapshot file for this reload.
	Path string `json:"path,omitempty"`
}

// reloadResponse reports a completed model swap.
type reloadResponse struct {
	Status     string  `json:"status"`
	Path       string  `json:"path"`
	Generation uint64  `json:"generation"`
	Swaps      uint64  `json:"swaps"`
	DurationMS float64 `json:"duration_ms"`
}

// ReloadSnapshot performs a zero-downtime model swap from a snapshot file
// (pythia.System.Save): a standby generation decodes the snapshot and the
// serving pointer swings atomically. An empty path uses Options.SnapshotPath; the
// path actually loaded is returned. This is the programmatic entry behind both
// POST /v1/admin/reload and pythia-serve's SIGHUP handler.
func (s *Server) ReloadSnapshot(path string) (string, InfStatus, error) {
	if path == "" {
		path = s.opts.SnapshotPath
	}
	if path == "" {
		return "", InfStatus{}, errNoSnapshot
	}
	f, err := os.Open(path)
	if err != nil {
		return path, InfStatus{}, err
	}
	defer f.Close()
	if err := s.pool.Swap(f); err != nil {
		return path, InfStatus{}, err
	}
	return path, s.pool.Status(), nil
}

// handleReload is POST /v1/admin/reload: swap the serving models from a
// snapshot file without dropping a request. The optional JSON body may name
// a snapshot path; otherwise the server's -snapshot configuration is used.
// It passes no admission point: an operator must be able to roll models on an
// overloaded server.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if !s.decodePost(w, r, "POST to reload the serving snapshot", func(body io.Reader) error {
		b, err := io.ReadAll(body)
		if err == nil && len(bytes.TrimSpace(b)) > 0 {
			err = json.Unmarshal(b, &req)
		}
		if err != nil {
			return fmt.Errorf("reload body must be empty or {\"path\": \"...\"}: %w", err)
		}
		return nil
	}) {
		return
	}
	start := time.Now()
	path, st, err := s.ReloadSnapshot(req.Path)
	if err != nil {
		switch {
		case errors.Is(err, errNoSnapshot):
			writeError(w, http.StatusBadRequest, CodeNoSnapshot,
				"no snapshot path configured; pass {\"path\": \"...\"} or start the server with -snapshot")
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
		Path:       path,
		Generation: st.Generation,
		Swaps:      st.Swaps,
		DurationMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}
