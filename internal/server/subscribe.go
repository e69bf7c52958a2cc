package server

import (
	"errors"
	"net/http"

	"streamloader/internal/ops"
	"streamloader/internal/warehouse"
)

// DefaultMaxSubscribers caps the live subscribe clients when the Server
// does not configure its own bound. Each subscriber costs one goroutine
// and one bounded channel, so the cap protects file descriptors and
// memory, not the ingest path — view maintenance cost is per view, not
// per subscriber.
const DefaultMaxSubscribers = 10_000

// subscriberBuffer is the per-client update channel depth. Updates are
// full snapshots (latest-wins), so a shallow buffer costs a slow client
// freshness, never correctness.
const subscriberBuffer = 16

// handleWarehouseSubscribe registers (or shares) a standing aggregate view
// and streams its snapshots: the aggregate endpoint's params (func, field,
// group, bucket, plus the shared filter) with &policy= (event — the
// default —, interval:<dur>, count:<n>) choosing the push cadence and
// &format= choosing the framing — "sse" (default; text/event-stream with
// "snapshot"/"update"/"error" events) or "ndjson" (one update object per
// line). The first frame is always a full snapshot backfilled from
// cold/hot history; every later frame is again a full snapshot, so a
// client that misses frames (slow-consumer shedding sets "shed" and
// "resnapshot") loses freshness, never correctness. Identical
// (query, policy) subscriptions share one maintained view server-side.
func (s *Server) handleWarehouseSubscribe(w http.ResponseWriter, r *http.Request) {
	if s.Warehouse == nil {
		writeError(w, http.StatusNotFound, "no warehouse configured")
		return
	}
	aq, err := warehouse.ParseAggQueryValues(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	aq.MaxGroups = s.AggMaxGroups
	policy, err := ops.ParseUpdatePolicy(r.URL.Query().Get("policy"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad policy: %v", err)
		return
	}
	var sse bool
	switch f := r.URL.Query().Get("format"); f {
	case "", "sse":
		sse = true
	case "ndjson":
	default:
		writeError(w, http.StatusBadRequest, "bad format %q (want sse or ndjson)", f)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	max := s.MaxSubscribers
	if max <= 0 {
		max = DefaultMaxSubscribers
	}
	sub, err := s.Warehouse.Subscribe(aq, warehouse.SubscribeOptions{
		Policy: policy, Buffer: subscriberBuffer, MaxSubscribers: max,
	})
	if err != nil {
		if errors.Is(err, warehouse.ErrTooManySubscribers) {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeError(w, warehouseErrStatus(err), "%v", err)
		return
	}
	defer sub.Close()

	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher.Flush() // commit headers before the first update arrives

	var frame []byte // reused: one write per update
	for {
		select {
		case <-r.Context().Done():
			return
		case u, ok := <-sub.Updates():
			if !ok {
				return // view closed (warehouse shutdown)
			}
			frame = appendSubscribeFrame(frame[:0], &u, sse)
			if _, err := w.Write(frame); err != nil {
				return
			}
			flusher.Flush()
			if u.Err != nil {
				return
			}
		}
	}
}

// appendSubscribeFrame appends one update as the client reads it: the
// update's JSON object (warehouse.ViewUpdate.AppendJSON) on a line of its
// own for ndjson, or as the data of an SSE "update", "snapshot" or "error"
// event. The rows inside were encoded once by the view's publisher; what is
// done here, per subscriber, is a copy and the few members that differ
// between subscribers (shed, resnapshot).
func appendSubscribeFrame(dst []byte, u *warehouse.ViewUpdate, sse bool) []byte {
	if !sse {
		return append(u.AppendJSON(dst), '\n')
	}
	event := "update"
	switch {
	case u.Err != nil:
		event = "error"
	case u.Resnapshot:
		event = "snapshot"
	}
	dst = append(dst, "event: "...)
	dst = append(dst, event...)
	dst = append(dst, "\ndata: "...)
	dst = u.AppendJSON(dst)
	return append(dst, "\n\n"...)
}
