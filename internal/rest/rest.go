// Package rest exposes the DLaaS API over HTTP/JSON, mirroring the
// paper's statement that the API microservice "exposes both a RESTful
// API as well as a GRPC API endpoint" (the in-process rpc bus plays the
// role of gRPC). Routes follow the FfDL convention of a /v1/models
// resource. Tenancy is asserted with the X-Tenant header, standing in
// for the platform's access management.
package rest

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	dlaas "repro"

	"repro/internal/core"
	"repro/internal/core/api"
	"repro/internal/core/manifest"
	"repro/internal/mongo"
	"repro/internal/trace"
)

// TenantHeader carries the caller's tenant identity.
const TenantHeader = "X-Tenant"

// SubmitResult is the POST /v1/models response body.
type SubmitResult struct {
	JobID string `json:"job_id"`
	State string `json:"state"`
}

// ErrorBody is the JSON error envelope.
type ErrorBody struct {
	Error string `json:"error"`
}

// Handler builds the HTTP API for a platform instance.
func Handler(p *dlaas.Platform) http.Handler {
	s := &server{p: p}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/models", s.submit)
	mux.HandleFunc("GET /v1/models", s.list)
	mux.HandleFunc("GET /v1/models/{id}", s.status)
	mux.HandleFunc("DELETE /v1/models/{id}", s.halt)
	mux.HandleFunc("GET /v1/models/{id}/logs", s.logs)
	mux.HandleFunc("GET /v1/models/{id}/events", s.events)
	mux.HandleFunc("GET /v1/models/{id}/metrics", s.metrics)
	mux.HandleFunc("GET /v1/health", s.health)
	mux.HandleFunc("GET /v1/cluster", s.cluster)
	mux.HandleFunc("GET /v1/admin/metrics", s.platformMetrics)
	mux.HandleFunc("GET /metrics", s.prometheus)
	mux.HandleFunc("GET /traces/{id}", s.trace)
	return mux
}

type server struct {
	p *dlaas.Platform
}

func (s *server) client(r *http.Request) (*dlaas.Client, error) {
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		return nil, fmt.Errorf("missing %s header", TenantHeader)
	}
	return s.p.Client(tenant), nil
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	client, err := s.client(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	var m dlaas.Manifest
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding manifest: %w", err))
		return
	}
	id, err := client.Submit(&m)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, SubmitResult{JobID: id, State: string(dlaas.StateQueued)})
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	client, err := s.client(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	recs, err := client.List()
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, recs)
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	client, err := s.client(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	rec, err := client.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *server) halt(w http.ResponseWriter, r *http.Request) {
	client, err := s.client(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	state, err := client.Halt(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"state": string(state)})
}

func (s *server) logs(w http.ResponseWriter, r *http.Request) {
	client, err := s.client(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	learner, err := learnerParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	text, err := client.Logs(r.PathValue("id"), learner)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(text))
}

func (s *server) events(w http.ResponseWriter, r *http.Request) {
	client, err := s.client(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	events, err := client.Events(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, events)
}

func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	client, err := s.client(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	learner, err := learnerParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	points, err := client.Metrics(r.PathValue("id"), learner)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, points)
}

func (s *server) health(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) cluster(w http.ResponseWriter, r *http.Request) {
	client, err := s.client(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	info, err := client.ClusterInfo()
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// platformMetrics dumps the metering/instrumentation registry as text.
func (s *server) platformMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(s.p.Metrics().Snapshot() + "\n"))
}

// prometheus serves the registry in Prometheus text exposition format —
// counters, gauges, and cumulative histogram buckets — on the
// conventional scrape path.
func (s *server) prometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(s.p.Metrics().PrometheusText()))
}

// TraceBody is the GET /traces/{id} response: the job's span tree plus
// its critical-path phase attribution.
type TraceBody struct {
	Trace        *trace.Tree       `json:"trace"`
	CriticalPath trace.Attribution `json:"critical_path"`
}

// trace serves one job's span tree and critical path. Trace access is
// tenant-scoped through the same ownership check as job status.
func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	client, err := s.client(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	id := r.PathValue("id")
	if _, err := client.Status(id); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	t := s.p.Trace().Tree(id)
	if t == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace recorded for job %s", id))
		return
	}
	writeJSON(w, http.StatusOK, TraceBody{Trace: t, CriticalPath: trace.CriticalPath(t)})
}

func learnerParam(r *http.Request) (int, error) {
	q := r.URL.Query().Get("learner")
	if q == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad learner index %q", q)
	}
	return n, nil
}

// statusFor maps platform errors onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, core.ErrJobNotFound), errors.Is(err, mongo.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, api.ErrForbidden):
		return http.StatusForbidden
	case errors.Is(err, manifest.ErrInvalid):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorBody{Error: err.Error()})
}
