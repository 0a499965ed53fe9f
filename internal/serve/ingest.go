package serve

import (
	"fmt"
	"net/http"
	"time"

	"masksearch"
)

// maxIngestBody bounds one /ingest request body. Pixels ride as base64
// (4/3 overhead), so 32 MiB fits ~24 MiB of raw mask bytes — hundreds
// of masks at the simulated-dataset sizes — while still protecting the
// server from an unbounded read.
const maxIngestBody = 32 << 20

// ingestRequest is the /ingest body: a batch of masks appended as one
// atomic WAL batch. The response acknowledges the assigned ids only
// after the batch is durable (fsynced); a crash after the response
// never loses an acknowledged mask.
type ingestRequest struct {
	Masks     []ingestMask `json:"masks"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
}

// ingestMask is one mask on the wire. Pixels is standard base64 of the
// raw uint8 pixel values, row-major, length mask_w*mask_h (255 = 1.0).
type ingestMask struct {
	ImageID  int64    `json:"image_id"`
	ModelID  int      `json:"model_id"`
	MaskType int      `json:"mask_type"`
	Label    int      `json:"label,omitempty"`
	Pred     int      `json:"pred,omitempty"`
	Modified bool     `json:"modified,omitempty"`
	Object   rectJSON `json:"object"`
	Pixels   []byte   `json:"pixels"`
}

type rectJSON struct {
	X0 int `json:"x0"`
	Y0 int `json:"y0"`
	X1 int `json:"x1"`
	Y1 int `json:"y1"`
}

type ingestResponse struct {
	IDs   []int64 `json:"ids"`
	Count int     `json:"count"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.c.requests.Add(1)
	var req ingestRequest
	if err := decodeBounded(w, r, &req, maxIngestBody); err != nil {
		s.failStatus(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Masks) == 0 {
		s.failStatus(w, http.StatusBadRequest, `missing "masks"`)
		return
	}
	mw, mh := s.db.MaskDims()
	masks := make([]masksearch.AppendMask, len(req.Masks))
	for i, m := range req.Masks {
		if len(m.Pixels) != mw*mh {
			s.failStatus(w, http.StatusBadRequest, fmt.Sprintf(
				"mask %d: pixels decodes to %d bytes, want %d (%dx%d)", i, len(m.Pixels), mw*mh, mw, mh))
			return
		}
		masks[i] = masksearch.AppendMask{
			ImageID:  m.ImageID,
			ModelID:  m.ModelID,
			MaskType: m.MaskType,
			Label:    m.Label,
			Pred:     m.Pred,
			Modified: m.Modified,
			Object:   masksearch.Rect{X0: m.Object.X0, Y0: m.Object.Y0, X1: m.Object.X1, Y1: m.Object.Y1},
			Pixels:   m.Pixels,
		}
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	start := time.Now()
	defer func() { s.c.latency.Observe(time.Since(start)) }()

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	ids, err := s.db.Append(ctx, masks)
	if err != nil {
		s.fail(w, err)
		return
	}
	n := s.c.ingests.Add(1)
	s.c.masksIn.Add(int64(len(ids)))
	// Periodic index durability: every IndexEvery acknowledged batches,
	// persist the CHI index so a crash re-loads it instead of rebuilding
	// every appended mask's CHI from pixels. The batch itself is already
	// durable (WAL fsync), so a checkpoint failure downgrades to "the
	// next checkpoint retries" rather than failing the ingest.
	if s.cfg.IndexEvery > 0 && n%int64(s.cfg.IndexEvery) == 0 {
		if err := s.db.CheckpointIndex(); err == nil {
			s.c.idxCheckpoints.Add(1)
		}
	}
	writeJSON(w, http.StatusOK, ingestResponse{IDs: ids, Count: len(ids)})
}

// handleCompact folds the WAL into the base layout on demand (the
// server also exposes no timer of its own — cmd/msserve's
// -compact-every loop calls DB.Compact directly).
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s.c.requests.Add(1)
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	moved, err := s.db.Compact(r.Context())
	if err != nil {
		s.fail(w, err)
		return
	}
	s.c.compacts.Add(1)
	writeJSON(w, http.StatusOK, map[string]int{"moved": moved})
}
