package serve

import (
	"context"
	"net/http"
	"time"

	"clio/internal/fd"
	"clio/internal/obs"
)

// Operator-facing observability endpoints: Prometheus scrape, the
// statusz operational summary, and the retained-trace browser. These
// are mounted outside the admission gate (see routes) so they answer
// even when the request plane is saturated.

// handleMetrics renders the default registry in Prometheus text
// exposition format 0.0.4.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w, obs.SnapshotDefault())
}

// handleStatusz answers the one-page operational summary: enough to
// decide "is this server healthy and why not" without a dashboard.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	hits := obs.GetCounter("fd.cache.hits").Value()
	misses := obs.GetCounter("fd.cache.misses").Value()
	var ratio float64
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	body := map[string]any{
		"uptime_s":             int64(time.Since(s.started).Seconds()),
		"draining":             s.draining.Load(),
		"sessions":             len(s.sessionIDs()),
		"sessions_archived":    len(s.archivedIDs()),
		"sessions_expired":     cExpired.Value(),
		"sessions_resurrected": cResurrected.Value(),
		"in_flight":            gInFlight.Value(),
		"requests":             cRequests.Value(),
		"request_errors":       cErrors.Value(),
		"throttled":            cThrottled.Value(),
		"session_throttled":    cSessionThrottled.Value(),
		"panics":               cPanics.Value(),
		"budget_rejections":    cBudgetRejected.Value(),
		"journal_degraded":     obs.GetGauge("clio.journal.degraded").Value(),
		"spill": map[string]any{
			"enabled":      s.cfg.Budget.SpillDir != "",
			"dir":          s.cfg.Budget.SpillDir,
			"max_bytes":    s.cfg.Budget.MaxSpillBytes,
			"partitions":   obs.GetCounter("spill.partitions").Value(),
			"bytes":        obs.GetCounter("spill.bytes").Value(),
			"spill_aborts": obs.GetCounter("spill.spill_aborts").Value(),
			"recursions":   obs.GetCounter("spill.recursions").Value(),
		},
		"cache": map[string]any{
			"entries":   fd.CacheLen(),
			"capacity":  fd.CacheCapacity(),
			"hits":      hits,
			"misses":    misses,
			"hit_ratio": ratio,
		},
	}
	if s.traces != nil {
		body["traces_retained"] = s.traces.Len()
	}
	writeJSON(w, http.StatusOK, body)
}

// traceSummary is one /debug/traces index row.
type traceSummary struct {
	ID    string    `json:"id"`
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	DurUS int64     `json:"dur_us"`
	Spans int       `json:"spans"`
}

func summarize(traces []*obs.Trace) []traceSummary {
	out := make([]traceSummary, 0, len(traces))
	for _, tr := range traces {
		out = append(out, traceSummary{
			ID:    tr.ID,
			Name:  tr.Name,
			Start: tr.Start,
			DurUS: tr.Duration.Microseconds(),
			Spans: tr.Spans,
		})
	}
	return out
}

// handleTraceIndex lists the retained traces: most recent first, plus
// the slowest-seen list.
func (s *Server) handleTraceIndex(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "trace retention disabled"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"capacity": s.traces.Cap(),
		"recent":   summarize(s.traces.Recent()),
		"slowest":  summarize(s.traces.Slowest()),
	})
}

// handleTraceGet returns one retained span tree in full.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "trace retention disabled"})
		return
	}
	tr := s.traces.Get(r.PathValue("id"))
	if tr == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no retained trace " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":     tr.ID,
		"name":   tr.Name,
		"start":  tr.Start,
		"dur_us": tr.Duration.Microseconds(),
		"spans":  tr.Spans,
		"root":   obs.ToSpanJSON(tr.Root),
	})
}

// handleExplain compiles and executes the active mapping's D(G) plan
// (the same fd.Compute route the examples endpoint takes) and returns
// the operator tree annotated with each operator's rows/batches/timing
// from that execution, the algorithm the graph's shape selects, and
// the memo cache's disposition.
func (s *Server) handleExplain(ctx context.Context, r *http.Request) (any, error) {
	return s.withSession(r, func(sess *Session) (any, error) {
		act := sess.tool.Active()
		if act == nil {
			return nil, badRequest("no active workspace")
		}
		res, err := fd.ExplainCompute(ctx, act.Mapping.Graph, sess.in)
		if err != nil {
			return nil, opError(err)
		}
		body := map[string]any{
			"mapping":     act.Mapping.Name,
			"algo":        res.Algo,
			"cache":       res.Cache,
			"is_tree":     res.IsTree,
			"nodes":       res.Nodes,
			"subsets":     res.Subsets,
			"tuples":      res.Tuples,
			"duration_us": res.Duration.Microseconds(),
		}
		if res.Spilled {
			body["spilled"] = true
			body["spill_parts"] = res.SpillParts
			body["spill_bytes"] = res.SpillBytes
			body["spill_depth"] = res.SpillDepth
			body["spill_recursions"] = res.SpillRecursions
			body["partition_skew"] = res.PartitionSkew
		}
		if res.Root != nil {
			body["plan"] = obs.ToSpanJSON(res.Root)
		}
		return body, nil
	})
}
