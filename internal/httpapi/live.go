package httpapi

// Write endpoints for the live mutable dictionary engine:
//
//	POST /insert  {"s": "..."}  add a string (idempotent; echoes its id)
//	POST /delete  {"s": "..."}  tombstone a string
//
// Both require Content-Type: application/json, enforce the body and length
// caps of the request contract and honor the configured Timeout (504 on
// expiry). Every effective mutation advances the engine's generation before
// the response is written, and a result cache keys on that generation, so
// no later search can be served a pre-mutation cached result.

import (
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

// readMutation enforces content type, body size, valid UTF-8, and string
// bounds.
func readMutation(w http.ResponseWriter, r *http.Request) (string, error) {
	if mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err != nil || mt != "application/json" {
		return "", &Error{Status: http.StatusUnsupportedMediaType, Msg: "Content-Type must be application/json"}
	}
	var req mutateRequest
	if err := readJSON(w, r, &req); err != nil {
		return "", err
	}
	switch {
	case req.S == "":
		return "", badRequest("missing s field")
	case len(req.S) > maxQueryLen:
		return "", badRequest("string exceeds the maximum of " + strconv.Itoa(maxQueryLen) + " bytes")
	}
	return req.S, nil
}

// handleMutation serves /insert, or /delete when insert is false.
func (s *Server) handleMutation(insert bool) Endpoint {
	op := "delete"
	if insert {
		op = "insert"
	}
	return func(w http.ResponseWriter, r *http.Request) error {
		if s.live == nil {
			return &Error{Status: http.StatusNotImplemented, Msg: op + " requires a live engine"}
		}
		str, err := readMutation(w, r)
		if err != nil {
			return err
		}
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		resp := mutateResponse{S: str}
		if insert {
			resp.ID, resp.Changed, err = s.live.Insert(str)
		} else {
			resp.Changed, err = s.live.Delete(str)
		}
		if err != nil {
			return &Error{Status: http.StatusInternalServerError, Msg: err.Error()}
		}
		resp.Live = s.eng.Len()
		resp.Version = s.live.VersionString()
		resp.TookµS = time.Since(start).Microseconds()
		WriteJSON(w, resp)
		return nil
	}
}
