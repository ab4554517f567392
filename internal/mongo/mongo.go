// Package mongo is an in-memory document store standing in for the
// MongoDB deployment that holds DLaaS job metadata ("For the lifetime of
// a DL job, all its metadata, including its job parameters, are stored in
// MongoDB"). The platform relies on three properties, all provided here:
//
//   - Durable writes acknowledged before the API acknowledges a
//     submission, so accepted jobs are never lost.
//   - Atomic single-document updates (status transitions).
//   - Filtered queries over collections (job listing, GC scans).
//
// Since the metadata-plane refactor this package is a thin facade over
// the MVCC engine in internal/store: each collection is a keyspace
// prefix, single-document operations are per-key atomic updates under
// the engine lock, and queries are snapshot scans at a global revision —
// a seek to the collection's prefix in the engine's ordered index.
//
// Documents are map[string]any with a mandatory "_id" field. A committed
// document is immutable and shared, like an MVCC version: reads and change
// feeds return the stored map itself, with no copy, and nothing ever
// writes it again. The contract that makes that safe: a document or value
// handed to or returned by a collection is never modified — by the
// collection, which stores a shallow clone of what it is given and installs
// a fresh clone on every update, or by its callers.
package mongo

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/store"
)

// Common errors.
var (
	// ErrNotFound indicates no document matched the filter.
	ErrNotFound = errors.New("mongo: document not found")
	// ErrDuplicateKey indicates an insert reused a live _id.
	ErrDuplicateKey = errors.New("mongo: duplicate key")
	// ErrUnavailable indicates the database is down (crash simulation).
	ErrUnavailable = errors.New("mongo: database unavailable")
)

// Document is a JSON-like record. One handed to or returned by a
// Collection is shared with the store and never modified: a caller that
// wants a changed document goes through Mutate or UpdateOne, and one that
// keeps a document it read sees the version it read for good.
type Document = map[string]any

// Filter matches documents by exact field equality. A nil or empty
// filter matches everything.
type Filter = map[string]any

// writeLatency models the round trip to a replicated Mongo deployment
// with journaled write concern.
const writeLatency = 2 * time.Millisecond

// readLatency models an indexed read.
const readLatency = 500 * time.Microsecond

// mutateAttempts bounds rescans when every snapshot candidate of a
// filtered read-modify-write is concurrently mutated away.
const mutateAttempts = 4

// DB is a named set of collections over one shared store engine.
type DB struct {
	clk clock.Clock
	eng *store.Engine

	down atomic.Bool

	mu    sync.Mutex
	colls map[string]*Collection
}

// New returns an empty database on clk.
func New(clk clock.Clock) *DB {
	return &DB{
		clk:   clk,
		eng:   store.NewEngine(store.Config{}),
		colls: make(map[string]*Collection),
	}
}

// Close shuts down the backing engine.
func (d *DB) Close() { d.eng.Close() }

// Instrument publishes the backing engine's metrics (commit counts,
// history drops, watch-hub queue depth) into reg under the "mongo"
// label. Call before serving.
func (d *DB) Instrument(reg *metrics.Registry) { d.eng.Instrument(reg, "mongo") }

// SetDown simulates the database being unreachable (crash of the Mongo
// deployment). Operations fail until SetDown(false).
func (d *DB) SetDown(down bool) { d.down.Store(down) } //lint:allow deadexport test fault switch: TestTransitionWhileMongoDown checks job transitions across a MongoDB outage

func (d *DB) available() error {
	if d.down.Load() {
		return ErrUnavailable
	}
	return nil
}

// Collection returns (creating if needed) the named collection.
func (d *DB) Collection(name string) *Collection {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.colls[name]
	if c == nil {
		c = &Collection{db: d, name: name, prefix: "c\x00" + name + "\x00"}
		d.colls[name] = c
	}
	return c
}

// Collection is a keyspace of documents keyed by "_id".
type Collection struct {
	db     *DB
	name   string
	prefix string

	writes atomic.Int64
}

func (c *Collection) key(id string) string { return c.prefix + id }

// InsertOne adds doc. The document must carry a string "_id". The write
// is durable when InsertOne returns (journaled write concern). The store
// keeps a shallow clone, so it never aliases the caller's map; the values
// in it are shared and must not be modified.
func (c *Collection) InsertOne(doc Document) error {
	if err := c.db.available(); err != nil {
		return err
	}
	id, ok := doc["_id"].(string)
	if !ok || id == "" {
		return fmt.Errorf("mongo: insert into %s: missing string _id", c.name)
	}
	c.db.clk.Sleep(writeLatency)
	if _, err := c.db.eng.Insert(c.key(id), maps.Clone(doc)); err != nil {
		if errors.Is(err, store.ErrExists) {
			return fmt.Errorf("mongo: insert %s/%s: %w", c.name, id, ErrDuplicateKey)
		}
		return fmt.Errorf("mongo: insert %s/%s: %v", c.name, id, err)
	}
	c.writes.Add(1)
	return nil
}

// FindOne returns the first document matching filter in _id order: the
// committed version itself, which the caller must not modify.
func (c *Collection) FindOne(filter Filter) (Document, error) {
	if err := c.db.available(); err != nil {
		return nil, err
	}
	c.db.clk.Sleep(readLatency)
	if id, ok := filterID(filter); ok {
		// Point read: latest committed version of the one key.
		if v, _, found := c.db.eng.Get(c.key(id)); found {
			doc := v.(Document)
			if matches(doc, filter) {
				return doc, nil
			}
		}
		return nil, fmt.Errorf("mongo: find in %s: %w", c.name, ErrNotFound)
	}
	kvs, _, err := c.db.eng.Scan(c.prefix)
	if err != nil {
		return nil, fmt.Errorf("mongo: find in %s: %v", c.name, err)
	}
	for _, kv := range kvs {
		if doc := kv.Value.(Document); matches(doc, filter) {
			return doc, nil
		}
	}
	return nil, fmt.Errorf("mongo: find in %s: %w", c.name, ErrNotFound)
}

// FindID returns the document whose _id is id: the committed version
// itself, which the caller must not modify. It is FindOne's point read in
// FindOne's order — the availability check, one sleep, then the read —
// and that one sleep also pays whatever latency ctx owes (clock.Settle):
// a call's RPC legs, when the read is the first wait of a read method's
// handler (rpc.Bus.Register), so the call costs one instant, not two.
func (c *Collection) FindID(ctx context.Context, id string) (Document, error) {
	if err := c.db.available(); err != nil {
		return nil, err
	}
	clock.Settle(ctx, c.db.clk, readLatency)
	if v, _, found := c.db.eng.Get(c.key(id)); found {
		return v.(Document), nil
	}
	return nil, fmt.Errorf("mongo: find in %s: %w", c.name, ErrNotFound)
}

// Find returns every document matching filter, in _id order. The read is
// an MVCC snapshot at a global revision: it observes a consistent
// point-in-time view and never blocks concurrent writers. The documents
// are the committed versions, shared and never to be modified.
func (c *Collection) Find(filter Filter) ([]Document, error) {
	if err := c.db.available(); err != nil {
		return nil, err
	}
	c.db.clk.Sleep(readLatency)
	kvs, _, err := c.db.eng.Scan(c.prefix)
	if err != nil {
		return nil, fmt.Errorf("mongo: find in %s: %v", c.name, err)
	}
	var out []Document
	for _, kv := range kvs {
		if doc := kv.Value.(Document); matches(doc, filter) {
			out = append(out, doc)
		}
	}
	return out, nil
}

// UpdateOne applies set to the first document matching filter,
// atomically. It returns the updated document.
func (c *Collection) UpdateOne(filter Filter, set Document) (Document, error) {
	doc, err := c.mutateFiltered("update", filter, func(doc Document) error {
		for k, v := range set {
			if k == "_id" {
				continue // immutable
			}
			doc[k] = v
		}
		return nil
	})
	return doc, err
}

// Mutate atomically applies fn to the first document matching filter (in
// _id order) while holding the engine lock — the read-modify-write
// primitive behind dependable job state transitions. fn receives a
// shallow clone of the stored document to change in place (its top-level
// fields; the values in it are shared and are replaced, never modified);
// returning nil commits that clone (the _id is immutable), returning an
// error aborts and leaves the stored version untouched. fn must not call
// into the database, whose lock is not reentrant, nor touch the document
// after it returns. The committed document is returned.
//
// With an "_id" filter (the platform's state-transition path) the
// operation is exact: the one key is read and revalidated under the lock.
// A non-_id filter selects candidates from an MVCC snapshot and
// revalidates each under the engine lock, rescanning a bounded number of
// times; under sustained concurrent churn of the filtered fields it can
// return ErrNotFound even though some document matched at every instant —
// point-in-time candidate selection is the price of not holding the write
// lock across a whole-collection scan.
func (c *Collection) Mutate(filter Filter, fn func(doc Document) error) (Document, error) {
	return c.mutateFiltered("mutate", filter, fn)
}

// mutateFiltered is the shared filtered-RMW path. A point filter ("_id")
// goes straight to its key; otherwise candidates come from a snapshot
// scan and each is revalidated under the engine lock, retrying when every
// candidate was concurrently mutated away.
func (c *Collection) mutateFiltered(opName string, filter Filter, fn func(doc Document) error) (Document, error) {
	if err := c.db.available(); err != nil {
		return nil, err
	}
	c.db.clk.Sleep(writeLatency)

	if id, ok := filterID(filter); ok {
		doc, wrote, err := c.mutateKey(id, filter, fn)
		if err != nil {
			return nil, err
		}
		if !wrote {
			return nil, fmt.Errorf("mongo: %s in %s: %w", opName, c.name, ErrNotFound)
		}
		return doc, nil
	}

	for attempt := 0; attempt < mutateAttempts; attempt++ {
		kvs, _, err := c.db.eng.Scan(c.prefix)
		if err != nil {
			return nil, fmt.Errorf("mongo: %s in %s: %v", opName, c.name, err)
		}
		tried := false
		for _, kv := range kvs {
			doc := kv.Value.(Document)
			if !matches(doc, filter) {
				continue
			}
			tried = true
			id, _ := doc["_id"].(string)
			out, wrote, err := c.mutateKey(id, filter, fn)
			if err != nil {
				return nil, err
			}
			if wrote {
				return out, nil
			}
			// The candidate changed under us and no longer matches; the
			// next one in _id order is now the first match.
		}
		if !tried {
			break
		}
	}
	return nil, fmt.Errorf("mongo: %s in %s: %w", opName, c.name, ErrNotFound)
}

// mutateKey runs fn against the identified document under the engine
// lock, revalidating the filter there. wrote=false means the document is
// absent or no longer matches.
func (c *Collection) mutateKey(id string, filter Filter, fn func(doc Document) error) (Document, bool, error) {
	var out Document
	_, wrote, err := c.db.eng.Update(c.key(id), func(cur any, exists bool) (any, store.Action, error) {
		if !exists {
			return nil, store.ActSkip, nil
		}
		doc := cur.(Document)
		if !matches(doc, filter) {
			return nil, store.ActSkip, nil
		}
		work := maps.Clone(doc)
		if err := fn(work); err != nil {
			return nil, store.ActSkip, err
		}
		work["_id"] = id
		out = work
		return work, store.ActWrite, nil
	})
	if err != nil {
		return nil, false, err
	}
	if wrote {
		c.writes.Add(1)
	}
	return out, wrote, nil
}

// ChangeEvent is one committed document change in a collection's change
// feed: the document's new value and the engine revision that committed
// it. Documents are never deleted, so every change is an insert or an
// update. Doc is the committed version itself, shared with every reader
// and never to be modified.
type ChangeEvent struct {
	ID  string
	Doc Document
	Rev uint64
}

// Watch opens a change feed over the collection: every committed
// insert and update after the call is delivered in revision
// order. Pair with Find for list-then-watch consumers (the
// lifecycle manager's QUEUED sweep) — the feed replaces re-listing the
// collection on a poll loop. Cancel must be called to release the feed.
func (c *Collection) Watch() (<-chan ChangeEvent, func(), error) {
	return c.watch(c.prefix, "")
}

// WatchKey opens a change feed over a single document: only committed
// changes of the identified document are delivered, in revision order.
// High-fanout consumers that each care about one document (a Guardian
// per job watching for its own halt) use this instead of Watch, which
// wakes every subscriber on every document's commit.
func (c *Collection) WatchKey(id string) (<-chan ChangeEvent, func(), error) {
	return c.watch(c.key(id), id)
}

// watch is the shared feed pump. prefix selects events at the engine
// hub; only, when non-empty, additionally filters to the exact document
// (a key is also a prefix of longer ids, so hub filtering alone would
// over-match).
func (c *Collection) watch(prefix, only string) (<-chan ChangeEvent, func(), error) {
	ch, cancel, err := c.db.eng.Watch(prefix)
	if err != nil {
		return nil, nil, fmt.Errorf("mongo: watch %s: %v", c.name, err)
	}
	out := make(chan ChangeEvent, 64)
	done := make(chan struct{})
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			close(done)
		})
	}
	go func() {
		for {
			select {
			case <-done:
				return
			case ev := <-ch:
				ce := ChangeEvent{ID: strings.TrimPrefix(ev.Key, c.prefix), Rev: ev.Rev}
				if only != "" && ce.ID != only {
					continue
				}
				ce.Doc = ev.Value.(Document)
				select {
				case out <- ce:
				case <-done:
					return
				}
			}
		}
	}()
	return out, stop, nil
}

// Writes reports how many mutating operations committed (used by the
// overhead benches).
func (c *Collection) Writes() int { return int(c.writes.Load()) }

// filterID extracts a point filter's document ID.
func filterID(filter Filter) (string, bool) {
	id, ok := filter["_id"].(string)
	return id, ok && id != ""
}

// matches reports whether doc satisfies every equality in filter.
func matches(doc Document, filter Filter) bool {
	for k, want := range filter {
		got, ok := doc[k]
		if !ok || got != want {
			return false
		}
	}
	return true
}
