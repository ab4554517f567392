package objectstore

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
)

var (
	ownerCreds  = Credentials{AccessKey: "ak", SecretKey: "sk"}
	evilCreds   = Credentials{AccessKey: "ak2", SecretKey: "sk2"}
	testDataset = "train/imagenet.rec"
)

func newTestStore(t *testing.T) (*Store, *clock.Sim) {
	t.Helper()
	clk := clock.NewSim()
	t.Cleanup(clk.Close)
	link := netsim.NewSharedLink(netsim.Ethernet1G, clk)
	return New(clk, link), clk
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := newTestStore(t)
	if err := s.CreateBucket("b", ownerCreds); err != nil {
		t.Fatal(err)
	}
	data := []byte("checkpoint-bytes")
	if err := s.Put("b", "ckpt/1", data, ownerCreds); err != nil {
		t.Fatal(err)
	}
	obj, err := s.Get("b", "ckpt/1", ownerCreds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(obj.Data, data) || obj.Size != int64(len(data)) {
		t.Fatalf("obj = %+v", obj)
	}
}

func TestCreateBucketCollision(t *testing.T) {
	s, _ := newTestStore(t)
	if err := s.CreateBucket("b", ownerCreds); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateBucket("b", ownerCreds); !errors.Is(err, ErrBucketExists) {
		t.Fatalf("err = %v, want ErrBucketExists", err)
	}
}

func TestAccessDeniedForWrongCredentials(t *testing.T) {
	s, _ := newTestStore(t)
	if err := s.CreateBucket("tenant1", ownerCreds); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("tenant1", "k", []byte("x"), evilCreds); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("put err = %v, want ErrAccessDenied", err)
	}
	if _, err := s.Get("tenant1", "k", evilCreds); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("get err = %v, want ErrAccessDenied", err)
	}
	if _, err := s.List("tenant1", evilCreds); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("list err = %v, want ErrAccessDenied", err)
	}
}

func TestMissingBucketAndObject(t *testing.T) {
	s, _ := newTestStore(t)
	if _, err := s.Get("nope", "k", ownerCreds); !errors.Is(err, ErrNoBucket) {
		t.Fatalf("err = %v, want ErrNoBucket", err)
	}
	if err := s.CreateBucket("b", ownerCreds); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("b", "nope", ownerCreds); !errors.Is(err, ErrNoObject) {
		t.Fatalf("err = %v, want ErrNoObject", err)
	}
}

func TestSyntheticDatasetStatAndList(t *testing.T) {
	s, _ := newTestStore(t)
	if err := s.CreateBucket("data", ownerCreds); err != nil {
		t.Fatal(err)
	}
	const size = int64(10) << 40 // 10 TB
	if err := s.PutSynthetic("data", testDataset, size, ownerCreds); err != nil {
		t.Fatal(err)
	}
	obj, err := s.Stat("data", testDataset, ownerCreds)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Size != size || obj.Data != nil {
		t.Fatalf("stat = %+v", obj)
	}
	keys, err := s.List("data", ownerCreds)
	if err != nil || len(keys) != 1 || keys[0] != testDataset {
		t.Fatalf("list = (%v,%v)", keys, err)
	}
}

func TestGetChargesTransferTime(t *testing.T) {
	s, clk := newTestStore(t)
	if err := s.CreateBucket("b", ownerCreds); err != nil {
		t.Fatal(err)
	}
	// 117 MB at 117 MB/s (1GbE) should take ~1s of virtual time.
	data := make([]byte, 117*1000*1000)
	if err := s.Put("b", "big", data, ownerCreds); err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	if _, err := s.Get("b", "big", ownerCreds); err != nil {
		t.Fatal(err)
	}
	if got := clk.Since(start); got < 900*time.Millisecond {
		t.Fatalf("transfer took %v of virtual time, want ~1s", got)
	}
}

func TestStatsCounters(t *testing.T) {
	s, _ := newTestStore(t)
	if err := s.CreateBucket("b", ownerCreds); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", "k", make([]byte, 100), ownerCreds); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("b", "k", ownerCreds); err != nil {
		t.Fatal(err)
	}
	gets, puts, in, out := s.Stats()
	if gets != 1 || puts != 1 || in != 100 || out != 100 {
		t.Fatalf("stats = %d gets %d puts %d in %d out", gets, puts, in, out)
	}
}

func TestObjectDataIsolated(t *testing.T) {
	s, _ := newTestStore(t)
	if err := s.CreateBucket("b", ownerCreds); err != nil {
		t.Fatal(err)
	}
	data := []byte("original")
	if err := s.Put("b", "k", data, ownerCreds); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // caller mutation must not reach the store
	obj, _ := s.Get("b", "k", ownerCreds)
	if string(obj.Data) != "original" {
		t.Fatalf("stored data aliased caller slice: %q", obj.Data)
	}
}

// TestListSorted: List must return keys in sorted order, not map
// order — job manifests fingerprint dataset listings, and a
// map-ordered listing would make two identical runs fingerprint
// differently.
func TestListSorted(t *testing.T) {
	s, _ := newTestStore(t)
	if err := s.CreateBucket("b", ownerCreds); err != nil {
		t.Fatal(err)
	}
	keys := []string{"z/9", "a/1", "m/5", "c/2", "x/8", "b/7", "q/3"}
	for _, k := range keys {
		if err := s.Put("b", k, []byte("x"), ownerCreds); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.List("b", ownerCreds)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %v, want sorted %v", got, want)
	}
}
