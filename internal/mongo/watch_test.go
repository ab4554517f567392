package mongo

import (
	"testing"
	"time"

	"repro/internal/clock"
)

func recvChange(t *testing.T, ch <-chan ChangeEvent) ChangeEvent {
	t.Helper()
	select {
	case ce := <-ch:
		return ce
	case <-time.After(10 * time.Second):
		t.Fatal("no change event delivered")
		return ChangeEvent{}
	}
}

// TestCollectionChangeFeed: inserts and updates after the
// subscription arrive in revision order with the committed document —
// the list-then-watch substrate for the LCM's QUEUED sweep and GC.
func TestCollectionChangeFeed(t *testing.T) {
	clk := clock.NewSim()
	defer clk.Close()
	db := New(clk)
	defer db.Close()
	jobs := db.Collection("jobs")

	// Pre-subscription writes are not replayed.
	if err := jobs.InsertOne(Document{"_id": "j0", "state": "QUEUED"}); err != nil {
		t.Fatal(err)
	}

	feed, cancel, err := jobs.Watch()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	if err := jobs.InsertOne(Document{"_id": "j1", "state": "QUEUED"}); err != nil {
		t.Fatal(err)
	}
	ins := recvChange(t, feed)
	if ins.ID != "j1" || ins.Doc["state"] != "QUEUED" {
		t.Fatalf("insert event = %+v", ins)
	}

	if _, err := jobs.UpdateOne(Filter{"_id": "j1"}, Document{"state": "COMPLETED"}); err != nil {
		t.Fatal(err)
	}
	upd := recvChange(t, feed)
	if upd.ID != "j1" || upd.Doc["state"] != "COMPLETED" || upd.Rev <= ins.Rev {
		t.Fatalf("update event = %+v (after rev %d)", upd, ins.Rev)
	}

	// A different collection's writes never leak into this feed.
	if err := db.Collection("other").InsertOne(Document{"_id": "x"}); err != nil {
		t.Fatal(err)
	}
	select {
	case ce := <-feed:
		t.Fatalf("cross-collection leak: %+v", ce)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestChangeFeedSharesTheCommittedVersion: a feed delivers the stored
// map itself — the one FindOne returns — not a copy per subscriber.
func TestChangeFeedSharesTheCommittedVersion(t *testing.T) {
	clk := clock.NewSim()
	defer clk.Close()
	db := New(clk)
	defer db.Close()
	c := db.Collection("jobs")
	feed, cancel, err := c.Watch()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	one, cancelOne, err := c.WatchKey("j")
	if err != nil {
		t.Fatal(err)
	}
	defer cancelOne()
	if err := c.InsertOne(Document{"_id": "j", "state": "QUEUED"}); err != nil {
		t.Fatal(err)
	}
	ce, ceOne := recvChange(t, feed), recvChange(t, one)
	got, err := c.FindOne(Filter{"_id": "j"})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMap(ce.Doc, got) || !sameMap(ceOne.Doc, got) || got["state"] != "QUEUED" {
		t.Fatalf("feeds delivered %v and %v, FindOne returned %v: want one shared map", ce.Doc, ceOne.Doc, got)
	}
}
