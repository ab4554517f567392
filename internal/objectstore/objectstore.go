// Package objectstore models IBM Cloud Object Store: the bucketed blob
// service from which DLaaS learners stream training data and to which
// they write checkpoints, logs and trained models. Two properties matter
// to the reproduction:
//
//   - Streaming is bandwidth-metered over the shared datacenter network
//     (training data "cannot be stored locally and typically has to be
//     streamed over the network for each pass"), which is what couples
//     platform overhead to training throughput in Fig. 2.
//   - Access is credentialed per bucket, part of the multi-tenant
//     isolation story.
package objectstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/clock"
	"repro/internal/netsim"
)

// Common errors.
var (
	// ErrNoBucket indicates the bucket does not exist.
	ErrNoBucket = errors.New("objectstore: no such bucket")
	// ErrNoObject indicates the object does not exist.
	ErrNoObject = errors.New("objectstore: no such object")
	// ErrAccessDenied indicates the presented credentials do not grant
	// access to the bucket.
	ErrAccessDenied = errors.New("objectstore: access denied")
	// ErrBucketExists indicates a create collided with an existing name.
	ErrBucketExists = errors.New("objectstore: bucket already exists")
)

// Credentials authenticate a tenant to a bucket.
type Credentials struct {
	AccessKey string
	SecretKey string
}

// Object is a stored blob. Data is content; Size may exceed len(Data)
// for synthetic objects whose bytes are not materialized (multi-TB
// training sets are represented by size alone).
type Object struct {
	Key  string
	Size int64
	Data []byte
}

// Store is the object store service endpoint.
type Store struct {
	clk  clock.Clock
	link *netsim.SharedLink

	mu       sync.Mutex
	buckets  map[string]*bucket
	gets     int
	puts     int
	bytesIn  int64
	bytesOut int64
}

type bucket struct {
	creds   Credentials
	objects map[string]Object
}

// New returns an empty store whose transfers are metered over link.
func New(clk clock.Clock, link *netsim.SharedLink) *Store {
	return &Store{clk: clk, link: link, buckets: make(map[string]*bucket)}
}

// CreateBucket registers name with creds as its owner credentials.
func (s *Store) CreateBucket(name string, creds Credentials) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[name]; ok {
		return fmt.Errorf("creating bucket %q: %w", name, ErrBucketExists)
	}
	s.buckets[name] = &bucket{creds: creds, objects: make(map[string]Object)}
	return nil
}

// Put stores data under bucket/key, charging the transfer to the network.
func (s *Store) Put(bucketName, key string, data []byte, creds Credentials) error {
	b, err := s.authorize(bucketName, creds)
	if err != nil {
		return fmt.Errorf("put %s/%s: %w", bucketName, key, err)
	}
	s.link.Transfer(int64(len(data)))
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	b.objects[key] = Object{Key: key, Size: int64(len(data)), Data: cp}
	s.puts++
	s.bytesIn += int64(len(data))
	s.mu.Unlock()
	return nil
}

// PutSynthetic registers an object of the given size without materialized
// bytes — how multi-TB training datasets are represented. No transfer is
// charged: the data conceptually already resides in the store.
func (s *Store) PutSynthetic(bucketName, key string, size int64, creds Credentials) error {
	b, err := s.authorize(bucketName, creds)
	if err != nil {
		return fmt.Errorf("put-synthetic %s/%s: %w", bucketName, key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b.objects[key] = Object{Key: key, Size: size}
	s.puts++
	return nil
}

// Get returns the object, charging its full size to the network.
func (s *Store) Get(bucketName, key string, creds Credentials) (Object, error) {
	b, err := s.authorize(bucketName, creds)
	if err != nil {
		return Object{}, fmt.Errorf("get %s/%s: %w", bucketName, key, err)
	}
	s.mu.Lock()
	obj, ok := b.objects[key]
	s.mu.Unlock()
	if !ok {
		return Object{}, fmt.Errorf("get %s/%s: %w", bucketName, key, ErrNoObject)
	}
	s.link.Transfer(obj.Size)
	s.mu.Lock()
	s.gets++
	s.bytesOut += obj.Size
	s.mu.Unlock()
	return obj, nil
}

// Stat returns object metadata without a data transfer.
func (s *Store) Stat(bucketName, key string, creds Credentials) (Object, error) {
	b, err := s.authorize(bucketName, creds)
	if err != nil {
		return Object{}, fmt.Errorf("stat %s/%s: %w", bucketName, key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := b.objects[key]
	if !ok {
		return Object{}, fmt.Errorf("stat %s/%s: %w", bucketName, key, ErrNoObject)
	}
	obj.Data = nil
	return obj, nil
}

// List returns the keys in the bucket (no transfer charged).
func (s *Store) List(bucketName string, creds Credentials) ([]string, error) {
	b, err := s.authorize(bucketName, creds)
	if err != nil {
		return nil, fmt.Errorf("list %s: %w", bucketName, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(b.objects))
	for k := range b.objects {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// Stats reports cumulative operation and byte counters.
func (s *Store) Stats() (gets, puts int, bytesIn, bytesOut int64) { //lint:allow deadexport test-observation point: the traffic counters TestStatsCounters checks
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.puts, s.bytesIn, s.bytesOut
}

// authorize resolves the bucket and checks credentials.
func (s *Store) authorize(name string, creds Credentials) (*bucket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[name]
	if !ok {
		return nil, ErrNoBucket
	}
	if b.creds != creds {
		return nil, ErrAccessDenied
	}
	return b, nil
}
