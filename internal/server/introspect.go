package server

import (
	"errors"
	"net/http"
	"strconv"
)

// errBadK rejects non-positive or non-numeric ?k= values.
var errBadK = errors.New("k must be a positive integer")

// handleIntrospectHot serves GET /v1/introspect/hot: the server's own
// traffic summarized by the paper's sketches — hottest tenant sketches
// by ingested rows, hottest (sketch, item) pairs (sampled, scaled), and
// most-requested sketches. ?k= bounds each list (default 10).
func (s *Server) handleIntrospectHot(w http.ResponseWriter, r *http.Request) {
	k := 10
	if kq := r.URL.Query().Get("k"); kq != "" {
		n, err := strconv.Atoi(kq)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, errBadK)
			return
		}
		k = n
	}
	WriteJSON(w, http.StatusOK, s.ob.Hot.Report(k))
}
