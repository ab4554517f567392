// Package manifest defines and validates the training-job manifest users
// submit to DLaaS ("Job parameters, including the source of training
// data, credentials to access training data, framework, number of
// learners, location where results and logs should be stored, learning
// rate, etc., are specified using a manifest file").
package manifest

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/canonjson"
	"repro/internal/trainsim"
)

// ErrInvalid wraps all manifest validation failures.
var ErrInvalid = errors.New("manifest: invalid")

// MaxPriority bounds the job priority range (0 = default, best-effort;
// MaxPriority = most urgent).
const MaxPriority = 1000

// The caps on what one job may ask for are far beyond any cluster or model
// the platform schedules, and small enough that nothing computed from them
// overflows: a step's images (learners × gpus_per_learner × batch_per_gpu)
// are at most 2³⁰, and times a model's bytes or activations per image stay
// far inside an int64.
const (
	MaxLearners       = 1024
	MaxGPUsPerLearner = 64
	MaxBatchPerGPU    = 1 << 14
)

// DataRef locates training data or a results destination in the object
// store, with the credentials to access it.
type DataRef struct {
	Bucket    string `json:"bucket"`
	Key       string `json:"key,omitempty"`
	AccessKey string `json:"access_key"`
	SecretKey string `json:"secret_key"`
}

// Manifest is a training-job specification.
type Manifest struct {
	// Name is a user-facing job label.
	Name string `json:"name"`
	// Framework selects the DL framework image (caffe, tensorflow, ...).
	Framework string `json:"framework"`
	// Model selects the network architecture to train (vgg16, ...).
	Model string `json:"model"`
	// Learners is the number of learner processes (1 = single node).
	Learners int `json:"learners"`
	// GPUsPerLearner is the per-learner GPU allocation.
	GPUsPerLearner int `json:"gpus_per_learner"`
	// GPUType optionally pins a GPU model ("K80", "P100").
	GPUType string `json:"gpu_type,omitempty"`
	// BatchPerGPU is the minibatch per GPU.
	BatchPerGPU int `json:"batch_per_gpu"`
	// Epochs is how many passes over the data to train.
	Epochs int `json:"epochs"`
	// DatasetImages is the training-set size in samples.
	DatasetImages int64 `json:"dataset_images"`
	// TrainingData locates the input dataset.
	TrainingData DataRef `json:"training_data"`
	// Results locates where checkpoints/logs/model are written.
	Results DataRef `json:"results"`
	// Priority orders jobs in the gang scheduler's pending queue
	// (0..MaxPriority, default 0). Higher-priority jobs admit first and
	// may preempt the learner gangs of lower-priority jobs.
	Priority int `json:"priority,omitempty"`
	// CheckpointInterval is the user-chosen checkpoint cadence in
	// training time ("the checkpointing interval depends on the
	// tolerance level of the user to failures"). Zero disables
	// periodic checkpoints.
	CheckpointInterval time.Duration `json:"checkpoint_interval"`
	// LearningRate is passed through to the framework (profiling only).
	LearningRate float64 `json:"learning_rate,omitempty"`
}

// Validate checks the manifest and returns a descriptive error listing
// the first problem found.
func (m *Manifest) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("%w: name is required", ErrInvalid)
	case !trainsim.KnownFramework(trainsim.Framework(m.Framework)):
		return fmt.Errorf("%w: unsupported framework %q", ErrInvalid, m.Framework)
	case m.Learners < 1 || m.Learners > MaxLearners:
		return fmt.Errorf("%w: learners must be in 1..%d (got %d)", ErrInvalid, MaxLearners, m.Learners)
	case m.GPUsPerLearner < 0 || m.GPUsPerLearner > MaxGPUsPerLearner:
		return fmt.Errorf("%w: gpus_per_learner must be in 0..%d (got %d)", ErrInvalid, MaxGPUsPerLearner, m.GPUsPerLearner)
	case m.BatchPerGPU < 1 || m.BatchPerGPU > MaxBatchPerGPU:
		return fmt.Errorf("%w: batch_per_gpu must be in 1..%d (got %d)", ErrInvalid, MaxBatchPerGPU, m.BatchPerGPU)
	case m.Epochs < 1:
		return fmt.Errorf("%w: epochs must be >= 1", ErrInvalid)
	case m.DatasetImages < 1:
		return fmt.Errorf("%w: dataset_images must be >= 1", ErrInvalid)
	case m.DatasetImages > math.MaxInt64/int64(m.Epochs):
		return fmt.Errorf("%w: epochs × dataset_images overflows", ErrInvalid)
	case m.TrainingData.Bucket == "":
		return fmt.Errorf("%w: training_data.bucket is required", ErrInvalid)
	case m.TrainingData.Key == "":
		return fmt.Errorf("%w: training_data.key is required", ErrInvalid)
	case m.Results.Bucket == "":
		return fmt.Errorf("%w: results.bucket is required", ErrInvalid)
	case m.CheckpointInterval < 0:
		return fmt.Errorf("%w: checkpoint_interval must be >= 0", ErrInvalid)
	case m.Priority < 0 || m.Priority > MaxPriority:
		return fmt.Errorf("%w: priority must be in 0..%d (got %d)", ErrInvalid, MaxPriority, m.Priority)
	}
	if _, ok := trainsim.ModelByName(m.Model); !ok {
		return fmt.Errorf("%w: unknown model %q", ErrInvalid, m.Model)
	}
	return nil
}

// ModelSpec resolves the manifest's model from the catalog. Validate
// must have succeeded.
func (m *Manifest) ModelSpec() trainsim.ModelSpec {
	spec, _ := trainsim.ModelByName(m.Model)
	return spec
}

// CheckpointImages is the learner's checkpoint cadence in images, for
// steps of stepImages images that take stepTime each: the images of the
// steps that fit one CheckpointInterval (at least one step), but never
// more than the whole job's (epochs × dataset_images), which is also the
// cadence when the interval is 0 (no periodic checkpoints) or a step takes
// no time. For a manifest Validate accepts it is in 1..epochs ×
// dataset_images whatever the interval, so nothing computed from it
// overflows.
func (m *Manifest) CheckpointImages(stepTime time.Duration, stepImages int64) int64 {
	total := int64(m.Epochs) * m.DatasetImages
	if m.CheckpointInterval <= 0 || stepTime <= 0 || stepImages < 1 {
		return total
	}
	steps := max(int64(m.CheckpointInterval/stepTime), 1)
	if steps > total/stepImages {
		return total
	}
	return steps * stepImages
}

// TotalGPUs is the job's aggregate GPU demand. Validate's caps keep it from
// overflowing.
func (m *Manifest) TotalGPUs() int { return m.Learners * m.GPUsPerLearner }

// Encode serializes the manifest to JSON: the bytes json.Marshal writes.
func (m *Manifest) Encode() (string, error) {
	var buf [512]byte
	b, err := m.appendJSON(buf[:0])
	if err != nil {
		return "", fmt.Errorf("encoding manifest: %w", err)
	}
	return string(b), nil
}

// appendJSON appends the manifest's encoding to b without reflection; a
// manifest with a string json.Marshal escapes, or with a learning rate
// (profiling only, and rare), is handed to json.Marshal itself.
func (m *Manifest) appendJSON(b []byte) ([]byte, error) {
	if m.LearningRate != 0 {
		return canonjson.Marshal(b, m)
	}
	for _, s := range [...]string{m.Name, m.Framework, m.Model, m.GPUType, m.TrainingData.Bucket, m.TrainingData.Key,
		m.TrainingData.AccessKey, m.TrainingData.SecretKey, m.Results.Bucket, m.Results.Key, m.Results.AccessKey, m.Results.SecretKey} {
		if !canonjson.Plain(s) {
			return canonjson.Marshal(b, m)
		}
	}
	b = canonjson.AppendString(append(b, `{"name":`...), m.Name)
	b = canonjson.AppendString(append(b, `,"framework":`...), m.Framework)
	b = canonjson.AppendString(append(b, `,"model":`...), m.Model)
	b = strconv.AppendInt(append(b, `,"learners":`...), int64(m.Learners), 10)
	b = strconv.AppendInt(append(b, `,"gpus_per_learner":`...), int64(m.GPUsPerLearner), 10)
	b = canonjson.AppendOmitEmpty(b, `,"gpu_type":`, m.GPUType)
	b = strconv.AppendInt(append(b, `,"batch_per_gpu":`...), int64(m.BatchPerGPU), 10)
	b = strconv.AppendInt(append(b, `,"epochs":`...), int64(m.Epochs), 10)
	b = strconv.AppendInt(append(b, `,"dataset_images":`...), m.DatasetImages, 10)
	b = m.TrainingData.appendJSON(append(b, `,"training_data":`...))
	b = m.Results.appendJSON(append(b, `,"results":`...))
	if m.Priority != 0 {
		b = strconv.AppendInt(append(b, `,"priority":`...), int64(m.Priority), 10)
	}
	b = strconv.AppendInt(append(b, `,"checkpoint_interval":`...), int64(m.CheckpointInterval), 10)
	return append(b, '}'), nil
}

func (r *DataRef) appendJSON(b []byte) []byte {
	b = canonjson.AppendString(append(b, `{"bucket":`...), r.Bucket)
	b = canonjson.AppendOmitEmpty(b, `,"key":`, r.Key)
	b = canonjson.AppendString(append(b, `,"access_key":`...), r.AccessKey)
	b = canonjson.AppendString(append(b, `,"secret_key":`...), r.SecretKey)
	return append(b, '}')
}

// Decode parses a JSON manifest. The result is validated.
func Decode(s string) (*Manifest, error) {
	m, ok := decodeCanonical(s)
	if !ok {
		m = Manifest{}
		if err := json.Unmarshal([]byte(s), &m); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// decodeCanonical parses s if it is a manifest in Encode's layout without
// a learning rate (canonjson.Cursor): exactly what json.Unmarshal would
// make of it, with its strings substrings of s. ok is false for anything
// else, which json.Unmarshal then reads.
func decodeCanonical(s string) (m Manifest, ok bool) {
	c := canonjson.NewCursor(s)
	m.Name = c.Str(`{"name":`)
	m.Framework = c.Str(`,"framework":`)
	m.Model = c.Str(`,"model":`)
	m.Learners = int(c.Int(`,"learners":`, strconv.IntSize))
	m.GPUsPerLearner = int(c.Int(`,"gpus_per_learner":`, strconv.IntSize))
	m.GPUType = c.OmitEmpty(`,"gpu_type":`)
	m.BatchPerGPU = int(c.Int(`,"batch_per_gpu":`, strconv.IntSize))
	m.Epochs = int(c.Int(`,"epochs":`, strconv.IntSize))
	m.DatasetImages = c.Int(`,"dataset_images":`, 64)
	c.Expect(`,"training_data":`)
	m.TrainingData = decodeRef(&c)
	c.Expect(`,"results":`)
	m.Results = decodeRef(&c)
	if c.Field(`,"priority":`) {
		m.Priority = int(c.Int("", strconv.IntSize))
	}
	m.CheckpointInterval = time.Duration(c.Int(`,"checkpoint_interval":`, 64))
	c.Expect("}")
	return m, c.Done()
}

func decodeRef(c *canonjson.Cursor) (r DataRef) {
	r.Bucket = c.Str(`{"bucket":`)
	r.Key = c.OmitEmpty(`,"key":`)
	r.AccessKey = c.Str(`,"access_key":`)
	r.SecretKey = c.Str(`,"secret_key":`)
	c.Expect("}")
	return r
}
