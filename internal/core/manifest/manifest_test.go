package manifest

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func valid() Manifest {
	return Manifest{
		Name:           "train-1",
		Framework:      "tensorflow",
		Model:          "resnet50",
		Learners:       2,
		GPUsPerLearner: 1,
		BatchPerGPU:    32,
		Epochs:         3,
		DatasetImages:  100000,
		TrainingData: DataRef{
			Bucket: "data", Key: "imagenet.rec", AccessKey: "ak", SecretKey: "sk",
		},
		Results: DataRef{
			Bucket: "results", AccessKey: "ak", SecretKey: "sk",
		},
		CheckpointInterval: time.Hour,
	}
}

func TestValidManifestPasses(t *testing.T) {
	m := valid()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidationRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Manifest)
		substr string
	}{
		{"empty name", func(m *Manifest) { m.Name = "" }, "name"},
		{"bad framework", func(m *Manifest) { m.Framework = "jax" }, "framework"},
		{"zero learners", func(m *Manifest) { m.Learners = 0 }, "learners"},
		{"negative gpus", func(m *Manifest) { m.GPUsPerLearner = -1 }, "gpus"},
		{"zero batch", func(m *Manifest) { m.BatchPerGPU = 0 }, "batch"},
		{"zero epochs", func(m *Manifest) { m.Epochs = 0 }, "epochs"},
		{"zero dataset", func(m *Manifest) { m.DatasetImages = 0 }, "dataset"},
		{"no data bucket", func(m *Manifest) { m.TrainingData.Bucket = "" }, "training_data.bucket"},
		{"no data key", func(m *Manifest) { m.TrainingData.Key = "" }, "training_data.key"},
		{"no results bucket", func(m *Manifest) { m.Results.Bucket = "" }, "results.bucket"},
		{"negative checkpoint", func(m *Manifest) { m.CheckpointInterval = -time.Second }, "checkpoint"},
		{"unknown model", func(m *Manifest) { m.Model = "gpt4" }, "model"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := valid()
			tc.mutate(&m)
			err := m.Validate()
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("err = %v, want ErrInvalid", err)
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("err %q does not mention %q", err, tc.substr)
			}
		})
	}
}

func TestPriorityValidation(t *testing.T) {
	cases := []struct {
		name     string
		priority int
		ok       bool
	}{
		{"default-zero", 0, true},
		{"mid-range", 500, true},
		{"max", MaxPriority, true},
		{"negative", -1, false},
		{"above-max", MaxPriority + 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := valid()
			m.Priority = tc.priority
			err := m.Validate()
			if tc.ok && err != nil {
				t.Fatalf("priority %d rejected: %v", tc.priority, err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatalf("priority %d accepted", tc.priority)
				}
				if !errors.Is(err, ErrInvalid) {
					t.Fatalf("error not wrapped in ErrInvalid: %v", err)
				}
			}
		})
	}
}

func TestPrioritySurvivesRoundTrip(t *testing.T) {
	m := valid()
	m.Priority = 42
	raw, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Priority != 42 {
		t.Fatalf("priority round-trip = %d, want 42", got.Priority)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := valid()
	raw, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if *got != m {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, m)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode("{not json"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
	// Valid JSON but invalid manifest.
	if _, err := Decode(`{"name":"x"}`); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
}

func TestTotalGPUs(t *testing.T) {
	m := valid()
	m.Learners = 4
	m.GPUsPerLearner = 2
	if m.TotalGPUs() != 8 {
		t.Fatalf("TotalGPUs = %d", m.TotalGPUs())
	}
}

func TestModelSpecResolution(t *testing.T) {
	m := valid()
	spec := m.ModelSpec()
	if spec.Name != "resnet50" || spec.Params == 0 {
		t.Fatalf("spec = %+v", spec)
	}
}

// Property: every valid manifest survives an encode/decode round trip.
func TestQuickRoundTrip(t *testing.T) {
	frameworks := []string{"caffe", "tensorflow", "pytorch", "torch", "horovod"}
	models := []string{"vgg16", "resnet50", "inceptionv3", "alexnet", "googlenet"}
	f := func(fi, mi uint8, learners, batch, epochs uint8) bool {
		m := valid()
		m.Framework = frameworks[int(fi)%len(frameworks)]
		m.Model = models[int(mi)%len(models)]
		m.Learners = int(learners%8) + 1
		m.BatchPerGPU = int(batch%128) + 1
		m.Epochs = int(epochs%10) + 1
		raw, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(raw)
		return err == nil && *got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Manifests whose arithmetic would overflow are rejected: learners ×
// gpus_per_learner once read 0 GPUs for 2⁶² learners of 4, epochs ×
// dataset_images read 1 image for two MaxInt64s, and a huge batch_per_gpu
// wrapped the activation memory negative, so the batch "fit" any GPU.
func TestOverflowingManifestsRejected(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Manifest)
		substr string
	}{
		{"learners over the cap", func(m *Manifest) { m.Learners = MaxLearners + 1 }, "learners"},
		{"2^62 learners of 4 GPUs", func(m *Manifest) { m.Learners, m.GPUsPerLearner = 1<<62, 4 }, "learners"},
		{"GPUs per learner over the cap", func(m *Manifest) { m.GPUsPerLearner = MaxGPUsPerLearner + 1 }, "gpus_per_learner"},
		{"GPUs per learner overflow the total", func(m *Manifest) { m.Learners, m.GPUsPerLearner = MaxLearners, math.MaxInt/2 }, "gpus_per_learner"},
		{"batch over the cap", func(m *Manifest) { m.BatchPerGPU = MaxBatchPerGPU + 1 }, "batch_per_gpu"},
		{"batch × activations overflow", func(m *Manifest) { m.BatchPerGPU = math.MaxInt64 / 100_000_000 }, "batch_per_gpu"},
		{"epochs × images overflow", func(m *Manifest) { m.Epochs, m.DatasetImages = math.MaxInt64, math.MaxInt64 }, "overflows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := valid()
			tc.mutate(&m)
			err := m.Validate()
			if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("err = %v, want ErrInvalid mentioning %q", err, tc.substr)
			}
		})
	}
	m := valid()
	m.Model = "vgg16" // the most bytes and activations per image
	m.Learners, m.GPUsPerLearner, m.BatchPerGPU = MaxLearners, MaxGPUsPerLearner, MaxBatchPerGPU
	m.Epochs, m.DatasetImages = 1000, math.MaxInt64/1000
	if err := m.Validate(); err != nil {
		t.Fatalf("the largest products that fit were rejected: %v", err)
	}
	if err := productsFit(&m); err != nil {
		t.Fatal(err)
	}
}

// productsFit reports the first product of an accepted manifest's numbers
// that does not fit where the platform computes it: the GPU total and a
// step's images in an int, a step's input bytes, the activation and total
// memory per GPU, and the images of a whole job in an int64; and the
// learner's checkpoint cadence (checkpoint steps × a step's images), which
// must be what it is in exact arithmetic, capped at the job's images, for
// any step time.
func productsFit(m *Manifest) error {
	spec := m.ModelSpec()
	n := func(v int64) *big.Int { return big.NewInt(v) }
	gpus := new(big.Int).Mul(n(int64(m.Learners)), n(int64(m.GPUsPerLearner)))
	step := new(big.Int).Mul(gpus, n(int64(m.BatchPerGPU)))
	activations := new(big.Int).Mul(n(int64(m.BatchPerGPU)), n(spec.ActivationBytesPerImage))
	for _, p := range []struct {
		name string
		v    *big.Int
		max  int64
	}{
		{"learners × gpus_per_learner", gpus, math.MaxInt},
		{"a step's images", step, math.MaxInt},
		{"a step's input bytes", new(big.Int).Mul(step, n(spec.BytesPerImage)), math.MaxInt64},
		{"activation bytes per GPU", activations, math.MaxInt64},
		{"memory per GPU", new(big.Int).Add(activations, n(12*spec.Params)), math.MaxInt64},
		{"epochs × dataset_images", new(big.Int).Mul(n(int64(m.Epochs)), n(m.DatasetImages)), math.MaxInt64},
	} {
		if p.v.Cmp(n(p.max)) > 0 {
			return fmt.Errorf("%s = %v overflows (learners %d, gpus_per_learner %d, batch_per_gpu %d, epochs %d, dataset_images %d)",
				p.name, p.v, m.Learners, m.GPUsPerLearner, m.BatchPerGPU, m.Epochs, m.DatasetImages)
		}
	}
	// The learner's step: a step's images, or one GPU's batch for a job
	// without GPUs.
	stepImages := step.Int64()
	if stepImages == 0 {
		stepImages = int64(m.BatchPerGPU)
	}
	total := new(big.Int).Mul(n(int64(m.Epochs)), n(m.DatasetImages))
	for _, stepTime := range []time.Duration{0, 1, time.Millisecond, time.Second} {
		want := total
		if m.CheckpointInterval > 0 && stepTime > 0 {
			steps := n(max(int64(m.CheckpointInterval/stepTime), 1))
			if cadence := steps.Mul(steps, n(stepImages)); cadence.Cmp(total) < 0 {
				want = cadence
			}
		}
		if got := m.CheckpointImages(stepTime, stepImages); n(got).Cmp(want) != 0 {
			return fmt.Errorf("checkpoint cadence at %v a step = %d images, want %v (checkpoint_interval %v, a step's images %d, epochs × dataset_images %v)",
				stepTime, got, want, m.CheckpointInterval, stepImages, total)
		}
	}
	return nil
}

// FuzzManifestDecode: whatever Decode accepts has a non-negative GPU
// total, products that do not overflow (productsFit), and survives Encode →
// Decode unchanged. The committed corpus (testdata/fuzz) holds the
// overflows Decode once accepted, and a manifest whose checkpoint cadence
// the learner once wrapped negative, writing checkpoints forever.
func FuzzManifestDecode(f *testing.F) {
	m := valid()
	raw, err := m.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, s string) {
		m, err := Decode(s)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("Decode error %v is not ErrInvalid", err)
			}
			return
		}
		if m.TotalGPUs() < 0 {
			t.Fatalf("accepted a manifest with %d GPUs", m.TotalGPUs())
		}
		if err := productsFit(m); err != nil {
			t.Fatalf("accepted: %v", err)
		}
		raw, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(raw)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", raw, err)
		}
		if *got != *m {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, *m)
		}
	})
}
