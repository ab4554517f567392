package mongo

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	clk := clock.NewSim()
	t.Cleanup(clk.Close)
	return New(clk)
}

func TestInsertAndFindOne(t *testing.T) {
	db := newTestDB(t)
	jobs := db.Collection("jobs")
	err := jobs.InsertOne(Document{"_id": "j1", "status": "QUEUED", "user": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := jobs.FindOne(Filter{"_id": "j1"})
	if err != nil {
		t.Fatal(err)
	}
	if doc["status"] != "QUEUED" || doc["user"] != "alice" {
		t.Fatalf("doc = %v", doc)
	}
}

func TestInsertMissingID(t *testing.T) {
	db := newTestDB(t)
	err := db.Collection("jobs").InsertOne(Document{"status": "QUEUED"})
	if err == nil {
		t.Fatal("insert without _id succeeded")
	}
}

func TestInsertDuplicateID(t *testing.T) {
	db := newTestDB(t)
	jobs := db.Collection("jobs")
	if err := jobs.InsertOne(Document{"_id": "j1"}); err != nil {
		t.Fatal(err)
	}
	err := jobs.InsertOne(Document{"_id": "j1"})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
}

func TestFindOneNotFound(t *testing.T) {
	db := newTestDB(t)
	_, err := db.Collection("jobs").FindOne(Filter{"_id": "missing"})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestFindByField(t *testing.T) {
	db := newTestDB(t)
	jobs := db.Collection("jobs")
	for i := 0; i < 5; i++ {
		status := "QUEUED"
		if i%2 == 0 {
			status = "COMPLETED"
		}
		if err := jobs.InsertOne(Document{"_id": fmt.Sprintf("j%d", i), "status": status}); err != nil {
			t.Fatal(err)
		}
	}
	docs, err := jobs.Find(Filter{"status": "COMPLETED"})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 {
		t.Fatalf("found %d, want 3", len(docs))
	}
	// Results come back in _id order.
	if docs[0]["_id"] != "j0" || docs[2]["_id"] != "j4" {
		t.Fatalf("order = %v %v %v", docs[0]["_id"], docs[1]["_id"], docs[2]["_id"])
	}
}

func TestFindAllWithNilFilter(t *testing.T) {
	db := newTestDB(t)
	jobs := db.Collection("jobs")
	for i := 0; i < 3; i++ {
		if err := jobs.InsertOne(Document{"_id": fmt.Sprintf("j%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	docs, err := jobs.Find(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 {
		t.Fatalf("found %d, want 3", len(docs))
	}
}

func TestUpdateOneAtomicStatusTransition(t *testing.T) {
	db := newTestDB(t)
	jobs := db.Collection("jobs")
	if err := jobs.InsertOne(Document{"_id": "j1", "status": "DEPLOYING"}); err != nil {
		t.Fatal(err)
	}
	updated, err := jobs.UpdateOne(Filter{"_id": "j1"}, Document{"status": "PROCESSING"})
	if err != nil {
		t.Fatal(err)
	}
	if updated["status"] != "PROCESSING" {
		t.Fatalf("status = %v", updated["status"])
	}
	// Conditional update: only transition from an expected state
	// (optimistic concurrency used by the Guardian).
	_, err = jobs.UpdateOne(Filter{"_id": "j1", "status": "DEPLOYING"}, Document{"status": "FAILED"})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale transition err = %v, want ErrNotFound", err)
	}
}

func TestUpdateCannotChangeID(t *testing.T) {
	db := newTestDB(t)
	jobs := db.Collection("jobs")
	if err := jobs.InsertOne(Document{"_id": "j1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := jobs.UpdateOne(Filter{"_id": "j1"}, Document{"_id": "j2", "x": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := jobs.FindOne(Filter{"_id": "j1"}); err != nil {
		t.Fatal("_id was mutated")
	}
}

// sameMap reports whether a and b are one map, not two equal ones.
func sameMap(a, b Document) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// TestInsertStoresAShallowClone: the store never aliases the map a caller
// inserted, so writing that map afterwards changes nothing stored.
func TestInsertStoresAShallowClone(t *testing.T) {
	db := newTestDB(t)
	jobs := db.Collection("jobs")
	orig := Document{"_id": "j1", "state": "QUEUED"}
	if err := jobs.InsertOne(orig); err != nil {
		t.Fatal(err)
	}
	orig["state"] = "MANGLED"
	orig["extra"] = 1
	doc, err := jobs.FindOne(Filter{"_id": "j1"})
	if err != nil {
		t.Fatal(err)
	}
	if sameMap(doc, orig) || doc["state"] != "QUEUED" || len(doc) != 2 {
		t.Fatalf("stored doc = %v, want the inserted QUEUED version", doc)
	}
}

// TestReadsShareTheCommittedVersion: with no write in between, two reads
// return the one stored map, not a copy each; a write installs a new map
// and leaves the one already read as it was.
func TestReadsShareTheCommittedVersion(t *testing.T) {
	db := newTestDB(t)
	jobs := db.Collection("jobs")
	if err := jobs.InsertOne(Document{"_id": "j1", "state": "QUEUED"}); err != nil {
		t.Fatal(err)
	}
	a, err := jobs.FindOne(Filter{"_id": "j1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := jobs.FindOne(Filter{"_id": "j1"})
	if err != nil {
		t.Fatal(err)
	}
	all, err := jobs.Find(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMap(a, b) || len(all) != 1 || !sameMap(a, all[0]) {
		t.Fatal("two reads with no write between them returned different maps")
	}
	updated, err := jobs.UpdateOne(Filter{"_id": "j1"}, Document{"state": "PROCESSING"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := jobs.FindOne(Filter{"_id": "j1"})
	if err != nil {
		t.Fatal(err)
	}
	if sameMap(a, c) || !sameMap(updated, c) || c["state"] != "PROCESSING" {
		t.Fatalf("after the update: read %v, returned %v", c, updated)
	}
	if a["state"] != "QUEUED" {
		t.Fatalf("the version read before the update changed: %v", a)
	}
}

// TestFailedMutateLeavesTheVersion: fn writes its clone and then fails;
// the stored version is the one before, field for field and by pointer.
func TestFailedMutateLeavesTheVersion(t *testing.T) {
	db := newTestDB(t)
	jobs := db.Collection("jobs")
	if err := jobs.InsertOne(Document{"_id": "j1", "state": "QUEUED"}); err != nil {
		t.Fatal(err)
	}
	before, err := jobs.FindOne(Filter{"_id": "j1"})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("refused")
	_, err = jobs.Mutate(Filter{"_id": "j1"}, func(doc Document) error {
		if sameMap(doc, before) {
			t.Error("fn was handed the stored version, not a clone")
		}
		doc["state"] = "MANGLED"
		doc["extra"] = 1
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Mutate err = %v, want fn's error", err)
	}
	after, err := jobs.FindOne(Filter{"_id": "j1"})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMap(before, after) || after["state"] != "QUEUED" || len(after) != 2 {
		t.Fatalf("stored doc = %v after a failed Mutate, want the QUEUED version", after)
	}
}

func TestDownDatabaseRejectsOps(t *testing.T) {
	db := newTestDB(t)
	jobs := db.Collection("jobs")
	db.SetDown(true)
	if err := jobs.InsertOne(Document{"_id": "j1"}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("insert err = %v, want ErrUnavailable", err)
	}
	if _, err := jobs.FindOne(Filter{"_id": "j1"}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("find err = %v, want ErrUnavailable", err)
	}
	db.SetDown(false)
	if err := jobs.InsertOne(Document{"_id": "j1"}); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}

// TestFindIDPaysWhatTheContextOwes: a point read by _id sleeps whatever
// its context owes together with its own latency, in one instant, and
// clears the debt. A database that is down fails the read before the
// sleep, leaving the debt to the caller.
func TestFindIDPaysWhatTheContextOwes(t *testing.T) {
	clk := clock.NewManual()
	db := New(clk)
	t.Cleanup(func() {
		db.Close()
		clk.Close()
	})
	jobs := db.Collection("jobs")
	inserted := make(chan error, 1)
	go func() { inserted <- jobs.InsertOne(Document{"_id": "j1", "user": "alice"}) }()
	clocktest.Run(clk, writeLatency)
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}

	const owed = time.Millisecond
	type found struct {
		doc Document
		err error
		at  time.Time
	}
	findOn := func(ctx context.Context, id string) found {
		done := make(chan found, 1)
		go func() {
			doc, err := jobs.FindID(ctx, id)
			done <- found{doc, err, clk.Now()}
		}()
		clocktest.Run(clk, time.Second)
		return <-done
	}
	ctx := clock.Owe(context.Background(), owed)
	start, before := clk.Now(), clk.Instants()
	r := findOn(ctx, "j1")
	if r.err != nil || r.doc["user"] != "alice" {
		t.Fatalf("FindID = %v, %v", r.doc, r.err)
	}
	if got := r.at.Sub(start); got != owed+readLatency {
		t.Fatalf("read landed %v after it started, want the debt and the read, %v", got, owed+readLatency)
	}
	if got := clk.Instants() - before; got != 1 {
		t.Fatalf("read fired %d instants, want 1", got)
	}
	if got := clock.Owed(ctx); got != 0 {
		t.Fatalf("context still owes %v after the read", got)
	}
	if r := findOn(context.Background(), "missing"); !errors.Is(r.err, ErrNotFound) {
		t.Fatalf("missing document: err = %v, want ErrNotFound", r.err)
	}

	db.SetDown(true)
	ctx = clock.Owe(context.Background(), owed)
	if _, err := jobs.FindID(ctx, "j1"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("down database: err = %v, want ErrUnavailable", err)
	}
	if got := clock.Owed(ctx); got != owed {
		t.Fatalf("a failed read took the debt: context owes %v, want %v", got, owed)
	}
}

func TestConcurrentInsertsDistinctIDs(t *testing.T) {
	db := newTestDB(t)
	jobs := db.Collection("jobs")
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := jobs.InsertOne(Document{"_id": fmt.Sprintf("j%d", i)}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if docs, _ := jobs.Find(nil); len(docs) != 32 {
		t.Fatalf("count = %d, want 32", len(docs))
	}
}

// Property: insert-then-find returns exactly the inserted fields.
func TestQuickInsertFindRoundTrip(t *testing.T) {
	db := newTestDB(t)
	coll := db.Collection("rt")
	seq := 0
	f := func(status string, gpus uint8) bool {
		id := fmt.Sprintf("doc%d", seq)
		seq++
		if err := coll.InsertOne(Document{"_id": id, "status": status, "gpus": int(gpus)}); err != nil {
			return false
		}
		doc, err := coll.FindOne(Filter{"_id": id})
		return err == nil && doc["status"] == status && doc["gpus"] == int(gpus)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
