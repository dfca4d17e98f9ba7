package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	aapsm "repro"
)

// The streaming session protocol: GET /v1/sessions/{id}/stream holds one
// chunked response open (Server-Sent Events framing, stdlib only) and pushes
// per-stage results plus reuse stats every time an edit batch commits. An
// interactive editor keeps the stream for results while POSTing edits; the
// edits coalesce through the batcher, and each committed batch wakes every
// stream of the session exactly once.
//
// Wire framing (SSE): each message is
//
//	event: <hello|edit|detect|assign|correct|drc|mask|layout|svg|error|bye>
//	id: <session generation the message was computed at>
//	data: <payload — JSON for hello/edit/error and the JSON stages; raw
//	       text/SVG lines for mask/layout/svg, one data: line per line>
//
// followed by a blank line. Heartbeat comments (`: ping`) keep idle
// connections alive through proxies. Streams are bounded by -stream-max and
// exempt from global/per-session admission (they are long-lived; counting
// them against the request budget would starve the edits they watch).

// streamHello is the first event on a stream.
type streamHello struct {
	ID     string   `json:"id"`
	Gen    int64    `json:"gen"`
	Stages []string `json:"stages"`
}

// streamEdit announces a committed edit batch.
type streamEdit struct {
	Gen         int64                  `json:"gen"`
	Edits       int                    `json:"edits"`
	Features    int                    `json:"features"`
	Incremental aapsm.IncrementalStats `json:"incremental"`
}

// streamError wraps a failed stage read.
type streamError struct {
	Stage  string          `json:"stage"`
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, ent *sessionEntry) {
	if s.streamSem != nil {
		select {
		case s.streamSem <- struct{}{}:
			defer func() { <-s.streamSem }()
		default:
			s.metrics.streamsRejected.Add(1)
			writeError(w, http.StatusTooManyRequests, "stream_limit", "", "",
				"server is at its concurrent stream limit; retry shortly")
			return
		}
	}
	fl := http.NewResponseController(w)
	stages, err := parseStreamStages(r.URL.Query().Get("stages"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "", "", err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	s.metrics.streamsActive.Add(1)
	defer s.metrics.streamsActive.Add(-1)
	s.metrics.streamsTotal.Add(1)

	heartbeat := s.cfg.StreamHeartbeat
	lastGen := int64(-1)
	for {
		// Fetch the notify channel BEFORE reading the generation: a batch
		// landing between the two is then caught by the select instead of
		// being missed.
		notify := ent.batch.editNotify()
		gen := ent.Sess.Generation()
		if gen != lastGen {
			if err := s.streamEmitGeneration(w, r, ent, stages, gen, lastGen >= 0); err != nil {
				return // client went away
			}
			if fl.Flush() != nil {
				return // connection cannot stream (or went away)
			}
			lastGen = gen
			continue // an edit may have landed while emitting
		}
		if s.Draining() {
			sseEvent(w, "bye", gen, []byte(`{"reason":"draining"}`))
			_ = fl.Flush()
			return
		}
		hb := time.NewTimer(heartbeat)
		select {
		case <-notify:
			hb.Stop()
		case <-hb.C:
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			if fl.Flush() != nil {
				return
			}
		case <-r.Context().Done():
			hb.Stop()
			return
		case <-s.stop:
			hb.Stop()
			return
		}
	}
}

// streamEmitGeneration pushes one generation's worth of events: the hello (or
// edit) header, then every subscribed stage through the read single-flight —
// so a stream and GETs of the same stage in flight with it share one
// computation.
func (s *Server) streamEmitGeneration(w io.Writer, r *http.Request, ent *sessionEntry, stages []readStage, gen int64, edited bool) error {
	if !edited {
		if err := sseJSON(w, "hello", gen, streamHello{ID: ent.ID, Gen: gen, Stages: readStageNames(stages)}); err != nil {
			return err
		}
	} else {
		st := ent.Sess.Stats()
		ev := streamEdit{Gen: gen, Edits: st.Edits, Features: ent.Sess.NumFeatures(), Incremental: st.Incremental}
		if err := sseJSON(w, "edit", gen, ev); err != nil {
			return err
		}
	}
	s.metrics.streamEvents.Add(1)
	for _, st := range stages {
		req := r.Clone(r.Context())
		req.URL.RawQuery = ""
		code, _, body, ok := s.readCoalesced(req, ent, st.name, "", st.handler(s))
		if !ok {
			return r.Context().Err()
		}
		if code != http.StatusOK {
			if err := sseJSON(w, "error", gen, streamError{Stage: st.name, Status: code, Body: json.RawMessage(bytes.TrimSpace(body))}); err != nil {
				return err
			}
			s.metrics.streamEvents.Add(1)
			continue
		}
		if err := sseEvent(w, st.name, gen, body); err != nil {
			return err
		}
		s.metrics.streamEvents.Add(1)
	}
	return nil
}

// parseStreamStages validates the ?stages= list (default: detect).
func parseStreamStages(q string) ([]readStage, error) {
	if q == "" {
		return readStages[:1], nil
	}
	var out []readStage
	for _, name := range strings.Split(q, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(readStages, func(st readStage) bool { return st.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown stage %q (want any of %s)", name, strings.Join(readStageNames(readStages), ", "))
		}
		out = append(out, readStages[i])
	}
	return out, nil
}

// readStageNames returns the names of stages, in order.
func readStageNames(stages []readStage) []string {
	names := make([]string, len(stages))
	for i, st := range stages {
		names[i] = st.name
	}
	return names
}

// sseEvent writes one Server-Sent Event, framing multi-line payloads (mask
// text, SVG) as consecutive data: lines so the client reassembles them with
// a newline join.
func sseEvent(w io.Writer, event string, id int64, data []byte) error {
	if _, err := fmt.Fprintf(w, "event: %s\nid: %d\n", event, id); err != nil {
		return err
	}
	data = bytes.TrimRight(data, "\n")
	for _, line := range bytes.Split(data, []byte("\n")) {
		if _, err := fmt.Fprintf(w, "data: %s\n", line); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// sseJSON marshals v and writes it as one event.
func sseJSON(w io.Writer, event string, id int64, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return sseEvent(w, event, id, data)
}
