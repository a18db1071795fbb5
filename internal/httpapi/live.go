package httpapi

// Write endpoints for the live mutable dictionary engine:
//
//	POST /insert  {"s": "..."}  add a string (idempotent; echoes its id)
//	POST /delete  {"s": "..."}  tombstone a string
//
// Both require Content-Type: application/json, enforce MaxBody and
// MaxQueryLen, honor the configured Timeout (504 on expiry), and bump the
// result cache's version-in-key generation after every effective mutation,
// so no later search can be served a pre-mutation cached result.

import (
	"encoding/json"
	"errors"
	"mime"
	"net/http"
	"strconv"
	"time"
)

// liveMutator is the write surface the handlers need; the facade's Live and
// the executor's LiveSharded both provide it (discovered via the decorator
// chain, so a cache-wrapped live engine works too).
type liveMutator interface {
	Insert(s string) (int32, bool, error)
	Delete(s string) (bool, error)
	VersionString() string
}

// stringResolver resolves match ids to strings when the dataset is mutable
// (the static data slice only covers the seed).
type stringResolver interface {
	StringAt(id int32) (string, bool)
}

// mutateRequest is the /insert and /delete payload.
type mutateRequest struct {
	S string `json:"s"`
}

// mutateResponse reports one mutation's outcome. Changed is false for
// no-ops (inserting a live string, deleting an absent one); ID is the
// string's permanent binding (insert only); Live is the post-mutation live
// string count.
type mutateResponse struct {
	S       string `json:"s"`
	ID      int32  `json:"id,omitempty"`
	Changed bool   `json:"changed"`
	Live    int    `json:"live"`
	Version string `json:"version"`
	TookµS  int64  `json:"took_us"`
}

// decodeMutation enforces method, content type, body size, valid UTF-8, and
// string bounds, returning ok=false after writing the error response.
func (s *Server) decodeMutation(w http.ResponseWriter, r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return "", false
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != "application/json" {
			s.fail(w, http.StatusUnsupportedMediaType, "Content-Type must be application/json")
			return "", false
		}
	} else {
		s.fail(w, http.StatusUnsupportedMediaType, "Content-Type must be application/json")
		return "", false
	}
	body := r.Body
	if s.MaxBody > 0 {
		body = http.MaxBytesReader(w, r.Body, s.MaxBody)
	}
	var req mutateRequest
	if err := decodeUTF8(body, &req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the configured maximum of "+
					strconv.FormatInt(tooBig.Limit, 10)+" bytes")
			return "", false
		}
		s.fail(w, http.StatusBadRequest, err.Error())
		return "", false
	}
	if req.S == "" {
		s.fail(w, http.StatusBadRequest, "missing s field")
		return "", false
	}
	if s.MaxQueryLen > 0 && len(req.S) > s.MaxQueryLen {
		s.fail(w, http.StatusBadRequest,
			"string exceeds the configured maximum of "+strconv.Itoa(s.MaxQueryLen)+" bytes")
		return "", false
	}
	return req.S, true
}

// bumpCacheVersion pushes the live engine's generation into the result
// cache after an effective mutation. Idempotent with the facade's own bump:
// SetVersion with the current tag is a no-op.
func (s *Server) bumpCacheVersion() {
	if c, ok := engineAs[interface{ SetVersion(string) }](s.eng); ok {
		c.SetVersion(s.live.VersionString())
	}
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if s.live == nil {
		s.fail(w, http.StatusNotImplemented, "insert requires a live engine")
		return
	}
	str, ok := s.decodeMutation(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	if err := ctx.Err(); err != nil {
		s.failCtx(w, err)
		return
	}
	start := time.Now()
	id, changed, err := s.live.Insert(str)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	if changed {
		s.bumpCacheVersion()
	}
	resp := mutateResponse{
		S: str, ID: id, Changed: changed, Live: s.eng.Len(),
		Version: s.live.VersionString(),
		TookµS:  time.Since(start).Microseconds(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.live == nil {
		s.fail(w, http.StatusNotImplemented, "delete requires a live engine")
		return
	}
	str, ok := s.decodeMutation(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	if err := ctx.Err(); err != nil {
		s.failCtx(w, err)
		return
	}
	start := time.Now()
	changed, err := s.live.Delete(str)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	if changed {
		s.bumpCacheVersion()
	}
	resp := mutateResponse{
		S: str, Changed: changed, Live: s.eng.Len(),
		Version: s.live.VersionString(),
		TookµS:  time.Since(start).Microseconds(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
