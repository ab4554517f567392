package trainsim

import (
	"hash/fnv"
	"math"
	"strconv"

	"repro/internal/canonjson"
)

// LossCurve models training-loss progress for a model: an exponential
// decay from the initialization loss toward an asymptotic floor, with
// deterministic minibatch noise. It exists because users profile jobs by
// their "training progress graphs", and the paper notes those graphs
// differ (slightly) between a job that never failed and one that was
// restarted from a checkpoint — the curve re-traverses the images lost
// since the last checkpoint, visible as a kink in the time series.
type LossCurve struct {
	// InitLoss is the loss at step zero (weights at initialization).
	InitLoss float64
	// FloorLoss is the asymptotic converged loss.
	FloorLoss float64
	// DecayImages is the e-folding scale in images processed.
	DecayImages float64
	// NoiseAmplitude scales per-point minibatch noise.
	NoiseAmplitude float64
	// Seed decorrelates runs.
	Seed uint64
}

// CurveFor returns a plausible loss curve for the model (ImageNet-scale
// classification; absolute values are illustrative, the shape is what
// users profile).
func CurveFor(m ModelSpec, seed uint64) LossCurve {
	return LossCurve{
		InitLoss:       6.9, // ln(1000) — uniform over ImageNet classes
		FloorLoss:      1.2,
		DecayImages:    3e6 * (m.GFLOPsPerImage / 10), // heavier models converge slower per image
		NoiseAmplitude: 0.05,
		Seed:           seed,
	}
}

// LossAt returns the training loss after the given number of images,
// including deterministic minibatch noise.
func (c LossCurve) LossAt(images int64) float64 {
	if images < 0 {
		images = 0
	}
	decay := math.Exp(-float64(images) / c.DecayImages)
	base := c.FloorLoss + (c.InitLoss-c.FloorLoss)*decay
	return base + c.noiseAt(images)*c.NoiseAmplitude
}

// noiseAt is a deterministic hash-noise in [-1, 1) keyed by progress.
func (c LossCurve) noiseAt(images int64) float64 {
	h := fnv.New64a()
	var buf [16]byte
	v := uint64(images)
	s := c.Seed
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
		buf[8+i] = byte(s >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return float64(h.Sum64()%1_000_000)/500_000 - 1
}

// MetricPoint is one sample of a training progress graph.
type MetricPoint struct {
	// ClusterSeconds is the virtual time offset from training start.
	ClusterSeconds float64 `json:"t"`
	// Images is cumulative images processed (rolls back to the last
	// checkpoint after a restart).
	Images int64 `json:"images"`
	// Loss is the training loss at this point.
	Loss float64 `json:"loss"`
	// Restarts counts learner incarnations that contributed so far.
	Restarts int `json:"restarts"`
}

// AppendJSON appends the point's JSON encoding to b: the bytes
// json.Marshal writes, without reflection. A NaN or infinite value gets
// json.Marshal's error.
func (p MetricPoint) AppendJSON(b []byte) ([]byte, error) {
	for _, f := range [...]float64{p.ClusterSeconds, p.Loss} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return canonjson.Marshal(b, p)
		}
	}
	b = canonjson.AppendFloat(append(b, `{"t":`...), p.ClusterSeconds)
	b = strconv.AppendInt(append(b, `,"images":`...), p.Images, 10)
	b = canonjson.AppendFloat(append(b, `,"loss":`...), p.Loss)
	b = strconv.AppendInt(append(b, `,"restarts":`...), int64(p.Restarts), 10)
	return append(b, '}'), nil
}
