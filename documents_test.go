package dlaas

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mongo"
)

// TestCommittedDocumentsStayUnmodified: the jobs collection hands every
// reader the committed document itself, not a copy, so nothing on the
// platform may write one once it is stored. A small fleet runs to
// COMPLETED, with one job halted while it trains. Every version the jobs
// change feed delivers, and a FindOne of every job each virtual second,
// is rendered when it arrives and again at the end, and must read the
// same. Under -race a write to a shared document is also a race report
// against these reads.
func TestCommittedDocumentsStayUnmodified(t *testing.T) {
	t.Parallel()
	p := newTestPlatform(t, Options{Nodes: 2, GPUsPerNode: 2, Seed: 11})
	jobs := p.Mongo().Collection(core.JobsCollection)
	feed, cancel, err := jobs.Watch()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	type seen struct {
		doc  mongo.Document
		text string
	}
	var (
		mu   sync.Mutex
		docs []seen
		ids  []string
	)
	record := func(doc mongo.Document) {
		mu.Lock()
		docs = append(docs, seen{doc, fmt.Sprint(doc)})
		mu.Unlock()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case ce := <-feed:
				record(ce.Doc)
			case <-stop:
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		tick := p.Clock().NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C():
				mu.Lock()
				polled := append([]string(nil), ids...)
				mu.Unlock()
				for _, id := range polled {
					if doc, err := jobs.FindOne(mongo.Filter{"_id": id}); err == nil {
						record(doc)
					}
				}
			case <-stop:
				return
			}
		}
	}()

	const n = 3
	clients := make([]*Client, n)
	for i := range clients {
		tenant := fmt.Sprintf("team-%d", i)
		clients[i] = p.Client(tenant)
		m := testManifest(t, p, tenant, 1)
		if i > 0 {
			m.DatasetImages = 640
		}
		id, err := clients[i].Submit(m)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		mu.Lock()
		ids = append(ids, id)
		mu.Unlock()
	}
	if _, err := clients[0].WaitForState(ids[0], StateProcessing, time.Hour); err != nil {
		t.Fatalf("job %s never trained: %v", ids[0], err)
	}
	if state, err := clients[0].Halt(ids[0]); err != nil || state != StateHalted {
		t.Fatalf("halt %s: %v (state %s)", ids[0], err, state)
	}
	for i := 1; i < n; i++ {
		if rec, err := clients[i].WaitForState(ids[i], StateCompleted, time.Hour); err != nil {
			t.Fatalf("job %s: %v (state %s, reason %q)", ids[i], err, rec.State, rec.Reason)
		}
	}
	close(stop)
	wg.Wait()

	states := map[string]bool{}
	for _, s := range docs {
		if again := fmt.Sprint(s.doc); again != s.text {
			t.Errorf("a committed document changed after it was read:\n was %s\n now %s", s.text, again)
		}
		states[fmt.Sprint(s.doc["state"])] = true
	}
	for _, want := range []JobState{StateQueued, StateProcessing, StateHalted, StateCompleted} {
		if !states[string(want)] {
			t.Errorf("no %s version among the %d read", want, len(docs))
		}
	}
}
