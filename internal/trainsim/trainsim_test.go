package trainsim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gpu"
	"repro/internal/netsim"
)

func baseConfig(m ModelSpec, f Framework, g gpu.Spec, n int) Config {
	return Config{Model: m, Framework: f, GPU: g, NumGPUs: n, BatchPerGPU: 32}
}

func TestModelCatalogLookup(t *testing.T) {
	for _, name := range []string{"vgg16", "resnet50", "inceptionv3", "alexnet", "googlenet"} {
		if _, ok := ModelByName(name); !ok {
			t.Errorf("model %q missing from catalog", name)
		}
	}
	if _, ok := ModelByName("gpt4"); ok {
		t.Error("unknown model resolved")
	}
}

func TestKnownFrameworks(t *testing.T) {
	for _, f := range []Framework{Caffe, TensorFlow, PyTorch, Torch, Horovod} {
		if !KnownFramework(f) {
			t.Errorf("framework %q not known", f)
		}
	}
	if KnownFramework("jax") {
		t.Error("unknown framework accepted")
	}
}

func TestSingleGPUThroughputPlausible(t *testing.T) {
	// Sanity band: VGG-16/Caffe on one K80 trained ~20-40 images/sec in
	// contemporary benchmarks.
	got := baseConfig(VGG16, Caffe, gpu.K80, 1).Throughput()
	if got < 15 || got > 50 {
		t.Fatalf("VGG16/Caffe/K80 throughput = %.1f img/s, want 15-50", got)
	}
	// P100 is several times faster than K80 on the same model.
	k80 := baseConfig(ResNet50, TensorFlow, gpu.K80, 1).Throughput()
	p100 := baseConfig(ResNet50, TensorFlow, gpu.P100, 1).Throughput()
	if p100 < 2.5*k80 {
		t.Fatalf("P100 (%.1f) should be >2.5x K80 (%.1f)", p100, k80)
	}
}

func TestThroughputScalesWithGPUsSublinearly(t *testing.T) {
	for n := 2; n <= 4; n++ {
		c := baseConfig(VGG16, TensorFlow, gpu.P100, n)
		single := baseConfig(VGG16, TensorFlow, gpu.P100, 1)
		tN, t1 := c.Throughput(), single.Throughput()
		if tN <= t1 {
			t.Fatalf("%d GPUs (%.1f) not faster than 1 (%.1f)", n, tN, t1)
		}
		if tN >= float64(n)*t1 {
			t.Fatalf("%d GPUs (%.1f) superlinear vs %.1f", n, tN, t1)
		}
		eff := c.ScalingEfficiency()
		if eff <= 0 || eff >= 1 {
			t.Fatalf("scaling efficiency = %.3f, want (0,1)", eff)
		}
	}
}

func TestNVLinkScalesBetterThanPCIe(t *testing.T) {
	pcie := baseConfig(VGG16, TensorFlow, gpu.P100, 2)
	dgx := baseConfig(VGG16, TensorFlow, gpu.P100SXM2, 2)
	if dgx.ScalingEfficiency() <= pcie.ScalingEfficiency() {
		t.Fatalf("NVLink efficiency (%.3f) should beat PCIe (%.3f)",
			dgx.ScalingEfficiency(), pcie.ScalingEfficiency())
	}
}

func TestCommunicationHeavyModelSuffersMostOverPCIe(t *testing.T) {
	// VGG-16 has 5x the parameters of InceptionV3, so its 2-GPU PCIe
	// penalty versus NVLink must be the largest (the paper's Fig. 3
	// ordering at 2 GPUs: VGG 13.69% > ResNet 10.53% > Inception 10.06%).
	gap := func(m ModelSpec) float64 {
		dlaas := Config{Model: m, Framework: TensorFlow, GPU: gpu.P100, NumGPUs: 2, BatchPerGPU: 32, Overheads: DLaaS()}
		dgx := Config{Model: m, Framework: TensorFlow, GPU: gpu.P100SXM2, NumGPUs: 2, BatchPerGPU: 32}
		return OverheadPercent(dgx, dlaas)
	}
	vgg, rn, inc := gap(VGG16), gap(ResNet50), gap(InceptionV3)
	if !(vgg > rn && rn > 0 && inc > 0) {
		t.Fatalf("gap ordering vgg=%.2f resnet=%.2f inception=%.2f", vgg, rn, inc)
	}
}

func TestDLaaSOverheadSmall(t *testing.T) {
	// Fig. 2 shape: platform overhead stays in single digits.
	for _, m := range []ModelSpec{VGG16, InceptionV3} {
		for n := 1; n <= 4; n++ {
			bare := Config{Model: m, Framework: Caffe, GPU: gpu.K80, NumGPUs: n, BatchPerGPU: 32}
			plat := bare
			plat.Overheads = DLaaS()
			pct := OverheadPercent(bare, plat)
			if pct < -1 || pct > 9 {
				t.Fatalf("%s x%d overhead = %.2f%%, want within (-1,9)", m.Name, n, pct)
			}
		}
	}
}

func TestNoiseDeterministic(t *testing.T) {
	c := Config{Model: VGG16, Framework: Caffe, GPU: gpu.K80, NumGPUs: 2, BatchPerGPU: 32, Overheads: DLaaS()}
	if c.Throughput() != c.Throughput() {
		t.Fatal("throughput not deterministic")
	}
	c2 := c
	c2.Seed = 99
	if c.Throughput() == c2.Throughput() {
		t.Fatal("seed does not perturb noise")
	}
}

func TestDataLinkBottleneck(t *testing.T) {
	// A compute-light model on fast GPUs over a slow data link must be
	// ingest-bound: throughput pinned at link rate / bytes-per-image.
	slow := netsim.Link{Name: "slow", Bandwidth: 10 * netsim.MBps, Latency: 0}
	c := Config{Model: AlexNet, Framework: TensorFlow, GPU: gpu.V100, NumGPUs: 4, BatchPerGPU: 64, DataLink: slow}
	got := c.Throughput()
	maxIngest := float64(slow.Bandwidth) / float64(AlexNet.BytesPerImage)
	if got > maxIngest*1.05 {
		t.Fatalf("throughput %.1f exceeds ingest bound %.1f", got, maxIngest)
	}
}

func TestEpochTimeScalesWithDataset(t *testing.T) {
	c := baseConfig(ResNet50, TensorFlow, gpu.P100, 1)
	small := c.EpochTime(10_000)
	big := c.EpochTime(100_000)
	if big < 9*small {
		t.Fatalf("epoch time not ~linear: %v vs %v", small, big)
	}
}

func TestCheckpointCost(t *testing.T) {
	c := baseConfig(VGG16, TensorFlow, gpu.P100, 1)
	if c.CheckpointBytes() != 4*VGG16.Params {
		t.Fatalf("checkpoint bytes = %d", c.CheckpointBytes())
	}
	// 552 MB over 1GbE ≈ 4.7s.
	d := c.CheckpointTime()
	if d.Seconds() < 3 || d.Seconds() > 8 {
		t.Fatalf("checkpoint time = %v, want 3-8s", d)
	}
	// Small models checkpoint faster.
	small := baseConfig(GoogLeNet, TensorFlow, gpu.P100, 1)
	if small.CheckpointTime() >= d {
		t.Fatal("GoogLeNet checkpoint should be faster than VGG16")
	}
}

func TestParameterServerSlowerThanAllReduceOnThinPipes(t *testing.T) {
	ar := Config{Model: VGG16, Framework: TensorFlow, GPU: gpu.P100, NumGPUs: 4, BatchPerGPU: 32,
		Sync: SyncAllReduce, Interconnect: netsim.Ethernet1G}
	ps := ar
	ps.Sync = SyncParameterServer
	if ps.Throughput() >= ar.Throughput() {
		t.Fatalf("PS (%.1f) should be slower than all-reduce (%.1f) at 4 workers",
			ps.Throughput(), ar.Throughput())
	}
}

func TestMemoryFits(t *testing.T) {
	// ResNet-50 batch 32 fits a K80 (12 GB); VGG-16 batch 64 does not
	// (64 * 180MB activations alone exceed it).
	ok := Config{Model: ResNet50, Framework: TensorFlow, GPU: gpu.K80, NumGPUs: 1, BatchPerGPU: 32}
	if !ok.FitsMemory() {
		t.Fatalf("resnet50@32 should fit K80 (needs %d MB)", ok.MemoryRequiredBytes()>>20)
	}
	oom := Config{Model: VGG16, Framework: TensorFlow, GPU: gpu.K80, NumGPUs: 1, BatchPerGPU: 64}
	if oom.FitsMemory() {
		t.Fatalf("vgg16@64 should OOM a K80 (needs %d MB)", oom.MemoryRequiredBytes()>>20)
	}
}

// Property: memory requirement is monotone in batch size.
func TestQuickMemoryMonotoneInBatch(t *testing.T) {
	f := func(a, b uint8) bool {
		ba, bb := int(a)+1, int(b)+1
		if ba > bb {
			ba, bb = bb, ba
		}
		ca := Config{Model: InceptionV3, Framework: TensorFlow, GPU: gpu.P100, BatchPerGPU: ba}
		cb := ca
		cb.BatchPerGPU = bb
		return ca.MemoryRequiredBytes() <= cb.MemoryRequiredBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: throughput is positive and step time monotone in batch size.
func TestQuickStepTimeMonotoneInBatch(t *testing.T) {
	f := func(a, b uint8) bool {
		ba, bb := int(a%64)+1, int(b%64)+1
		if ba > bb {
			ba, bb = bb, ba
		}
		ca := Config{Model: ResNet50, Framework: TensorFlow, GPU: gpu.P100, NumGPUs: 1, BatchPerGPU: ba}
		cb := ca
		cb.BatchPerGPU = bb
		return ca.StepTime() <= cb.StepTime() && ca.Throughput() > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: adding platform overheads never increases throughput.
func TestQuickOverheadsNeverHelp(t *testing.T) {
	f := func(n uint8) bool {
		gpus := int(n%4) + 1
		bare := Config{Model: InceptionV3, Framework: TensorFlow, GPU: gpu.K80, NumGPUs: gpus, BatchPerGPU: 32}
		plat := bare
		plat.Overheads = Overheads{ContainerFraction: 0.012, HelperFraction: 0.004}
		return plat.Throughput() <= bare.Throughput()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionCheckpointCostModel(t *testing.T) {
	cfg := baseConfig(VGG16, TensorFlow, gpu.P100, 1)
	stall := cfg.CheckpointStallTime()
	if stall <= 0 {
		t.Fatalf("stall time = %v, want > 0", stall)
	}
	// The on-demand cost decomposes exactly into device stall + upload —
	// the floor an EvictionGracePeriod must clear to be useful.
	if got, want := cfg.EvictionCheckpointTime(), stall+cfg.CheckpointTime(); got != want {
		t.Fatalf("eviction checkpoint time = %v, want stall %v + upload %v = %v", got, stall, cfg.CheckpointTime(), want)
	}
	// The device serialization (host link) is the minor term: the shared
	// 1GbE upload dominates, as it does for periodic checkpoints.
	if stall >= cfg.CheckpointTime() {
		t.Errorf("device stall %v should undercut the network upload %v", stall, cfg.CheckpointTime())
	}
}

// The derived figures below are the model's properties the tests state;
// no experiment reports them.

// ScalingEfficiency returns Throughput(N) / (N * Throughput(1)).
func (c Config) ScalingEfficiency() float64 {
	c = c.withDefaults()
	if c.NumGPUs <= 1 {
		return 1
	}
	single := c
	single.NumGPUs = 1
	return c.Throughput() / (float64(c.NumGPUs) * single.Throughput())
}

// EpochTime returns the wall time to process datasetImages samples once.
func (c Config) EpochTime(datasetImages int64) time.Duration {
	c = c.withDefaults()
	perStep := int64(c.BatchPerGPU * c.NumGPUs)
	if perStep == 0 {
		return 0
	}
	steps := (datasetImages + perStep - 1) / perStep
	return time.Duration(steps) * c.StepTime()
}
