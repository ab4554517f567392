// Package trainsim is the analytic deep-learning training performance
// model behind the paper's evaluation. Absolute throughput numbers are
// calibrated only loosely (the authors' testbed is not reproducible), but
// the model preserves the relationships the paper's figures demonstrate:
//
//   - Fig. 2: containerized DLaaS execution costs single-digit percent
//     versus bare metal, dominated by container virtualization and
//     helper-traffic contention on the shared 1GbE data network.
//   - Fig. 3: a DGX-1 outperforms PCIe cloud servers modestly — a few
//     percent at one GPU (higher SXM2 clocks) growing with GPU count and
//     with model size as NVLink accelerates gradient exchange. VGG-16
//     (138M parameters) suffers most over PCIe, InceptionV3 least.
//
// A training step is modeled as compute (batch work at the GPU's
// effective FLOP rate and a per-(model,framework) efficiency), plus
// gradient synchronization (ring all-reduce or parameter server over the
// configured fabric), plus a data-ingest constraint when streaming from
// the object store cannot keep up with consumption.
package trainsim

import (
	"hash/fnv"
	"strconv"
	"time"

	"repro/internal/gpu"
	"repro/internal/netsim"
)

// Framework identifies a supported DL framework. The platform is
// multi-framework by design; the model only needs their efficiency
// profiles.
type Framework string

// Supported frameworks.
const (
	Caffe      Framework = "caffe"
	TensorFlow Framework = "tensorflow"
	PyTorch    Framework = "pytorch"
	Torch      Framework = "torch"
	Horovod    Framework = "horovod"
)

// KnownFramework reports whether f is supported by the platform.
func KnownFramework(f Framework) bool {
	switch f {
	case Caffe, TensorFlow, PyTorch, Torch, Horovod:
		return true
	default:
		return false
	}
}

// SyncMode selects the distributed gradient-exchange strategy.
type SyncMode int

// Synchronization strategies.
const (
	// SyncAllReduce is ring all-reduce (Horovod, distributed TF).
	SyncAllReduce SyncMode = iota + 1
	// SyncParameterServer funnels gradients through a central server.
	SyncParameterServer
)

// ModelSpec describes a neural network's cost profile.
type ModelSpec struct {
	// Name identifies the benchmark model.
	Name string
	// Params is the number of trainable parameters (gradient volume =
	// 4 bytes per parameter).
	Params int64
	// GFLOPsPerImage is forward+backward compute per training sample.
	GFLOPsPerImage float64
	// BytesPerImage is the network volume per training sample when
	// streaming (compressed input record).
	BytesPerImage int64
	// ActivationBytesPerImage is the device memory held per in-flight
	// sample (forward activations retained for the backward pass) —
	// what bounds the usable batch size on a given GPU.
	ActivationBytesPerImage int64
}

// GradientBytes is the per-step gradient exchange volume (fp32).
func (m ModelSpec) GradientBytes() int64 { return m.Params * 4 }

// Benchmark model catalog (paper Sec. IV: VGG-16, ResNet-50, InceptionV3
// on ImageNet-scale inputs; extras for ablations).
var (
	VGG16 = ModelSpec{
		Name:                    "vgg16",
		Params:                  138_000_000,
		GFLOPsPerImage:          46.5, // 15.5 forward ×3 for fwd+bwd
		BytesPerImage:           110_000,
		ActivationBytesPerImage: 180_000_000,
	}
	ResNet50 = ModelSpec{
		Name:                    "resnet50",
		Params:                  25_600_000,
		GFLOPsPerImage:          11.7,
		BytesPerImage:           110_000,
		ActivationBytesPerImage: 120_000_000,
	}
	InceptionV3 = ModelSpec{
		Name:                    "inceptionv3",
		Params:                  23_900_000,
		GFLOPsPerImage:          17.1,
		BytesPerImage:           110_000,
		ActivationBytesPerImage: 90_000_000,
	}
	AlexNet = ModelSpec{
		Name:                    "alexnet",
		Params:                  61_000_000,
		GFLOPsPerImage:          2.1,
		BytesPerImage:           110_000,
		ActivationBytesPerImage: 30_000_000,
	}
	GoogLeNet = ModelSpec{
		Name:                    "googlenet",
		Params:                  6_800_000,
		GFLOPsPerImage:          4.5,
		BytesPerImage:           110_000,
		ActivationBytesPerImage: 40_000_000,
	}
)

// ModelByName resolves a catalog model.
func ModelByName(name string) (ModelSpec, bool) {
	switch name {
	case "vgg16", "vgg-16":
		return VGG16, true
	case "resnet50", "resnet-50":
		return ResNet50, true
	case "inceptionv3", "inception-v3":
		return InceptionV3, true
	case "alexnet":
		return AlexNet, true
	case "googlenet":
		return GoogLeNet, true
	default:
		return ModelSpec{}, false
	}
}

// frameworkEfficiency is the fraction of peak FLOPs a framework sustains.
// Values reflect the era of the paper (Caffe 1.0, TF 1.5).
func frameworkEfficiency(f Framework) float64 {
	switch f {
	case Caffe:
		return 0.40
	case TensorFlow:
		return 0.45
	case PyTorch:
		return 0.44
	case Torch:
		return 0.42
	case Horovod: // Horovod drives TF kernels
		return 0.45
	default:
		return 0.35
	}
}

// Overheads a platform configuration adds to raw training.
type Overheads struct {
	// ContainerFraction is the fractional compute slowdown from running
	// inside Docker/Kubernetes rather than on bare metal (cgroup
	// accounting, image-layer filesystem, virtual networking).
	ContainerFraction float64
	// HelperFraction is the fractional slowdown from DLaaS helper
	// containers sharing the node (log collection, status updates,
	// metrics) and their traffic sharing the data network.
	HelperFraction float64
	// NoiseFraction is the mean amplitude of stochastic platform
	// interference (noisy neighbors, network hiccups, straggler
	// batches). Interference only ever slows training down, so the
	// realized slowdown is drawn from [0, 2*NoiseFraction), computed
	// deterministically from the configuration hash so experiments are
	// reproducible.
	NoiseFraction float64
}

// BareMetal is direct framework execution on the host (the paper's
// Fig. 2 baseline): no container, no platform helpers, no noise beyond
// the shared data network itself.
func BareMetal() Overheads { return Overheads{} }

// DLaaS is containerized execution under the full platform. The noise
// amplitude mirrors the run-to-run variance visible in the paper's
// measurements (their Fig. 2 differences are non-monotonic in GPU count).
func DLaaS() Overheads {
	return Overheads{
		ContainerFraction: 0.012,
		HelperFraction:    0.004,
		NoiseFraction:     0.022,
	}
}

// Config is one training configuration to evaluate.
type Config struct {
	Model     ModelSpec
	Framework Framework
	GPU       gpu.Spec
	// NumGPUs is the total data-parallel width.
	NumGPUs int
	// BatchPerGPU is the per-GPU minibatch size.
	BatchPerGPU int
	// Sync selects the gradient-exchange strategy for NumGPUs > 1.
	Sync SyncMode
	// Interconnect carries gradient traffic. Zero value means the GPU's
	// host link.
	Interconnect netsim.Link
	// DataLink carries training-data streaming. Zero value means 1GbE.
	DataLink netsim.Link
	// Overheads models the execution platform.
	Overheads Overheads
	// Seed perturbs the deterministic noise (distinct measurement runs).
	Seed uint64
}

// withDefaults resolves zero-valued fields.
func (c Config) withDefaults() Config {
	if c.NumGPUs <= 0 {
		c.NumGPUs = 1
	}
	if c.BatchPerGPU <= 0 {
		c.BatchPerGPU = 32
	}
	if c.Sync == 0 {
		c.Sync = SyncAllReduce
	}
	if c.Interconnect.Bandwidth == 0 {
		c.Interconnect = c.GPU.HostLink
	}
	if c.DataLink.Bandwidth == 0 {
		c.DataLink = netsim.Ethernet1G
	}
	return c
}

// computeTimePerStep is the pure GPU time for one step (per GPU).
func (c Config) computeTimePerStep() time.Duration {
	eff := frameworkEfficiency(c.Framework)
	flops := float64(c.BatchPerGPU) * c.Model.GFLOPsPerImage * 1e9
	rate := c.GPU.EffectiveTFLOPS() * 1e12 * eff
	secs := flops / rate
	// Platform slowdowns stretch compute time.
	secs *= 1 + c.Overheads.ContainerFraction + c.Overheads.HelperFraction
	secs *= 1 + c.noise()
	return time.Duration(secs * float64(time.Second))
}

// syncTimePerStep is the gradient-exchange time for one step.
func (c Config) syncTimePerStep() time.Duration {
	if c.NumGPUs <= 1 {
		return 0
	}
	switch c.Sync {
	case SyncParameterServer:
		return netsim.ParameterServerTime(c.Interconnect, c.NumGPUs, c.Model.GradientBytes())
	default:
		return netsim.AllReduceTime(c.Interconnect, c.NumGPUs, c.Model.GradientBytes())
	}
}

// StepTime returns the wall time of one synchronous training step.
func (c Config) StepTime() time.Duration {
	c = c.withDefaults()
	step := c.computeTimePerStep() + c.syncTimePerStep()
	// Data-ingest constraint: if streaming cannot deliver the step's
	// samples in time, the step stalls on input.
	ingestBytes := int64(c.BatchPerGPU*c.NumGPUs) * c.Model.BytesPerImage
	ingest := c.DataLink.TransferTime(ingestBytes)
	if ingest > step {
		return ingest
	}
	return step
}

// Throughput returns aggregate training throughput in images/sec.
func (c Config) Throughput() float64 {
	c = c.withDefaults()
	step := c.StepTime()
	if step <= 0 {
		return 0
	}
	images := float64(c.BatchPerGPU * c.NumGPUs)
	return images / step.Seconds()
}

// MemoryRequiredBytes is the per-GPU device memory the configuration
// needs: weights + gradients + optimizer state (3x parameters) plus
// retained activations for the batch.
func (c Config) MemoryRequiredBytes() int64 {
	c = c.withDefaults()
	weights := 3 * c.Model.Params * 4
	activations := int64(c.BatchPerGPU) * c.Model.ActivationBytesPerImage
	return weights + activations
}

// FitsMemory reports whether the batch fits in the GPU's device memory
// (with a 10% framework/runtime reserve). A false result corresponds to
// the out-of-memory abort a real framework would raise at startup.
func (c Config) FitsMemory() bool {
	c = c.withDefaults()
	usable := int64(c.GPU.MemGB * 0.9 * 1e9)
	return c.MemoryRequiredBytes() <= usable
}

// CheckpointBytes is the serialized model size written per checkpoint.
func (c Config) CheckpointBytes() int64 { return c.Model.GradientBytes() }

// CheckpointTime is the wall time to persist one checkpoint to the
// object store over the data network.
func (c Config) CheckpointTime() time.Duration {
	c = c.withDefaults()
	return c.DataLink.TransferTime(c.CheckpointBytes())
}

// CheckpointStallTime is how long training stalls to serialize the
// model state off the device for an on-demand checkpoint: the
// parameters cross the GPU's host link before the upload can start.
// Periodic checkpoints hide this copy behind the next step's compute;
// an eviction-grace checkpoint cannot (the process is about to die), so
// it pays the stall in full.
func (c Config) CheckpointStallTime() time.Duration {
	c = c.withDefaults()
	return c.GPU.HostLink.TransferTime(c.CheckpointBytes())
}

// EvictionCheckpointTime is the full cost of an on-demand checkpoint
// taken under an eviction grace period: the device stall plus the
// object-store upload. It is the floor on a useful
// EvictionGracePeriod — a grace shorter than this force-evicts every
// learner before its checkpoint lands.
func (c Config) EvictionCheckpointTime() time.Duration { //lint:allow deadexport test-observation point: the model's cost of an eviction checkpoint, which the eviction tests size grace periods by
	c = c.withDefaults()
	return c.CheckpointStallTime() + c.CheckpointTime()
}

// noise returns a deterministic pseudo-random slowdown fraction in
// [0, 2*NoiseFraction), keyed by the configuration identity and seed. It
// realizes the run-to-run interference of real shared clusters
// reproducibly; interference never speeds a run up.
func (c Config) noise() float64 {
	if c.Overheads.NoiseFraction == 0 {
		return 0
	}
	// Hashes "model|framework|gpu|gpus|batch|seed" from a stack buffer.
	var buf [128]byte
	b := append(buf[:0], c.Model.Name...)
	b = append(append(b, '|'), c.Framework...)
	b = append(append(b, '|'), c.GPU.Name...)
	b = strconv.AppendInt(append(b, '|'), int64(c.NumGPUs), 10)
	b = strconv.AppendInt(append(b, '|'), int64(c.BatchPerGPU), 10)
	b = strconv.AppendUint(append(b, '|'), c.Seed, 10)
	h := fnv.New64a()
	_, _ = h.Write(b)
	u := h.Sum64()
	frac := float64(u%1_000_000) / 1_000_000 // [0, 1)
	return frac * 2 * c.Overheads.NoiseFraction
}

// OverheadPercent compares two configurations (typically platform vs
// baseline for the same workload) and returns the throughput difference
// of b relative to a, in percent: positive means a is faster.
func OverheadPercent(a, b Config) float64 {
	ta, tb := a.Throughput(), b.Throughput()
	if ta == 0 {
		return 0
	}
	return (ta - tb) / ta * 100
}
