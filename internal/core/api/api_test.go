package api

import (
	"context"
	"errors"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/core/manifest"
	"repro/internal/core/types"
	"repro/internal/etcd"
	"repro/internal/gpu"
	"repro/internal/kube"
	"repro/internal/metrics"
	"repro/internal/mongo"
	"repro/internal/netsim"
	"repro/internal/nfs"
	"repro/internal/objectstore"
	"repro/internal/rpc"
)

// newTestDeps builds a minimal substrate set: real stores on a virtual
// clock, no microservice pods (the Service methods are called directly).
func newTestDeps(t *testing.T) *core.Deps {
	t.Helper()
	clk := clock.NewSim()
	link := netsim.NewSharedLink(netsim.Ethernet1G, clk)
	cluster := kube.NewCluster(kube.Config{Clock: clk},
		kube.NodeSpec{Name: "n1", GPUs: 4, GPUType: "K80"},
		kube.NodeSpec{Name: "n2", GPUs: 4, GPUType: "K80"},
	)
	store := etcd.New(1, clk)
	t.Cleanup(func() {
		cluster.Stop()
		store.Close()
		clk.Close()
	})
	return &core.Deps{
		Clock:       clk,
		Bus:         rpc.NewBus(clk),
		Kube:        cluster,
		Etcd:        store,
		Mongo:       mongo.New(clk),
		ObjectStore: objectstore.New(clk, link),
		NFS:         nfs.NewServer(clk),
		DataLink:    link,
		DefaultGPU:  gpu.K80,
		Metrics:     metrics.NewRegistry(),
	}
}

func encodedManifest(t *testing.T) string {
	t.Helper()
	m := manifest.Manifest{
		Name: "t", Framework: "tensorflow", Model: "resnet50",
		Learners: 1, GPUsPerLearner: 1, BatchPerGPU: 32, Epochs: 1,
		DatasetImages: 1000,
		TrainingData:  manifest.DataRef{Bucket: "data", Key: "k", AccessKey: "ak", SecretKey: "sk"},
		Results:       manifest.DataRef{Bucket: "results", AccessKey: "ak", SecretKey: "sk"},
	}
	raw, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestSubmitRejectsInvalidManifest(t *testing.T) {
	s := New(newTestDeps(t))
	if _, err := s.submit(SubmitRequest{Tenant: "a", Manifest: `{"name":""}`}); err == nil {
		t.Fatal("invalid manifest accepted")
	}
	if _, err := s.submit(SubmitRequest{Tenant: "a", Manifest: "not json"}); err == nil {
		t.Fatal("garbage manifest accepted")
	}
}

func TestSubmitDurablyRecordsJob(t *testing.T) {
	d := newTestDeps(t)
	s := New(d)
	// The LCM is down (nothing registered on the bus): submission must
	// still succeed — the durability point is the MongoDB write, and the
	// LCM sweep picks the job up later.
	resp, err := s.submit(SubmitRequest{Tenant: "alice", Manifest: encodedManifest(t)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.State != types.StateQueued {
		t.Fatalf("state = %s, want QUEUED", resp.State)
	}
	rec, err := d.GetJob(context.Background(), resp.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tenant != "alice" || rec.State != types.StateQueued {
		t.Fatalf("record = %+v", rec)
	}
	_, hist, err := d.JobHistory(context.Background(), resp.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || hist[0].State != types.StateQueued {
		t.Fatalf("history = %v, want one QUEUED event", hist)
	}
}

func TestTenantAuthorization(t *testing.T) {
	d := newTestDeps(t)
	s := New(d)
	resp, err := s.submit(SubmitRequest{Tenant: "owner", Manifest: encodedManifest(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.authorizedJob(context.Background(), "intruder", resp.JobID); !errors.Is(err, ErrForbidden) {
		t.Fatalf("cross-tenant access error = %v, want ErrForbidden", err)
	}
	if _, err := s.authorizedJob(context.Background(), "owner", resp.JobID); err != nil {
		t.Fatalf("owner access rejected: %v", err)
	}
	// "" is administrative access.
	if _, err := s.authorizedJob(context.Background(), "", resp.JobID); err != nil {
		t.Fatalf("admin access rejected: %v", err)
	}
	if _, err := s.authorizedJob(context.Background(), "owner", "job-999999"); err == nil {
		t.Fatal("unknown job authorized")
	}
}

func TestListFiltersByTenant(t *testing.T) {
	d := newTestDeps(t)
	s := New(d)
	for _, tenant := range []string{"a", "a", "b"} {
		if _, err := s.submit(SubmitRequest{Tenant: tenant, Manifest: encodedManifest(t)}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.dispatch(context.Background(), MethodList, ListRequest{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.(ListResponse).Records); got != 2 {
		t.Fatalf("tenant a jobs = %d, want 2", got)
	}
	out, err = s.dispatch(context.Background(), MethodList, ListRequest{Tenant: ""})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.(ListResponse).Records); got != 3 {
		t.Fatalf("admin list = %d, want 3", got)
	}
}

func TestClusterInfoCounts(t *testing.T) {
	d := newTestDeps(t)
	s := New(d)
	if _, err := s.submit(SubmitRequest{Tenant: "a", Manifest: encodedManifest(t)}); err != nil {
		t.Fatal(err)
	}
	info, err := s.clusterInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != 2 || info.TotalGPUs != 8 || info.FreeGPUs != 8 {
		t.Fatalf("info = %+v", info)
	}
	if info.QueuedJobs != 1 || info.RunningJobs != 0 || info.TerminalJobs != 0 {
		t.Fatalf("job counts = %+v", info)
	}
}

func TestDispatchRejectsBadTypes(t *testing.T) {
	s := New(newTestDeps(t))
	if _, err := s.dispatch(context.Background(), MethodSubmit, 42); err == nil {
		t.Fatal("bad request type accepted")
	}
	if _, err := s.dispatch(context.Background(), "no-such-method", nil); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestRequestTenantExtraction(t *testing.T) {
	cases := []struct {
		req  any
		want string
	}{
		{SubmitRequest{Tenant: "a"}, "a"},
		{StatusRequest{Tenant: "b"}, "b"},
		{ListRequest{Tenant: "c"}, "c"},
		{HaltRequest{Tenant: "d"}, "d"},
		{LogsRequest{Tenant: "e"}, "e"},
		{EventsRequest{Tenant: "f"}, "f"},
		{MetricsRequest{Tenant: "g"}, "g"},
		{ClusterInfoRequest{Tenant: "h"}, "h"},
		{42, ""},
	}
	for _, tc := range cases {
		if got := requestTenant(tc.req); got != tc.want {
			t.Errorf("requestTenant(%T) = %q, want %q", tc.req, got, tc.want)
		}
	}
}

func TestHandleMetersRequests(t *testing.T) {
	d := newTestDeps(t)
	s := New(d)
	if _, err := s.handle(context.Background(), MethodSubmit, SubmitRequest{Tenant: "m", Manifest: encodedManifest(t)}); err != nil {
		t.Fatal(err)
	}
	// A failing call is metered as an error.
	_, _ = s.handle(context.Background(), MethodStatus, StatusRequest{Tenant: "m", JobID: "job-404404"})
	if got := d.Metrics.Counter("api_requests_total", "submit", "m"); got != 1 {
		t.Fatalf("submit counter = %v, want 1", got)
	}
	if got := d.Metrics.Counter("api_errors_total", "status", "m"); got != 1 {
		t.Fatalf("error counter = %v, want 1", got)
	}
}
