package load

import (
	"encoding/binary"

	"ebbrt/internal/sim"
)

// ETCConfig describes the Facebook ETC workload statistics the paper
// configures mutilate with: 20-70 byte keys, values mostly 1-1024 bytes,
// skewed key popularity, 90% GETs.
type ETCConfig struct {
	KeySpace  int
	KeyMin    int
	KeyMax    int
	ValueMax  int
	ValueMean float64
	GetRatio  float64
	ZipfSkew  float64
}

// DefaultETC returns the workload used throughout the harness.
func DefaultETC() ETCConfig {
	return ETCConfig{
		KeySpace:  20000,
		KeyMin:    20,
		KeyMax:    70,
		ValueMax:  1024,
		ValueMean: 220,
		GetRatio:  0.9,
		ZipfSkew:  1.05,
	}
}

// Workload is a pre-generated ETC key/value population plus samplers.
type Workload struct {
	cfg    ETCConfig
	Keys   [][]byte
	Values [][]byte
	zipf   *sim.Zipf
	rng    *sim.Rng
}

// NewWorkload builds a deterministic workload from a seed.
func NewWorkload(cfg ETCConfig, seed uint64) *Workload {
	rng := sim.NewRng(seed)
	w := &Workload{cfg: cfg, rng: rng}
	w.Keys = make([][]byte, cfg.KeySpace)
	w.Values = make([][]byte, cfg.KeySpace)
	for i := range w.Keys {
		klen := rng.IntRange(cfg.KeyMin, cfg.KeyMax)
		key := make([]byte, klen)
		// Distinct prefix guarantees uniqueness; the rest is filler.
		n := binary.PutUvarint(key, uint64(i)+1)
		for j := n; j < klen; j++ {
			key[j] = byte('a' + (i+j)%26)
		}
		w.Keys[i] = key
		w.Values[i] = w.newValue()
	}
	w.zipf = sim.NewZipf(rng, cfg.ZipfSkew, cfg.KeySpace)
	return w
}

// newValue draws a fresh value from the workload's size distribution.
// It shares the workload's RNG with NextOp, so targets draw it when they
// build a set's request, exactly where they always have.
func (w *Workload) newValue() []byte {
	vlen := int(w.rng.Exp(w.cfg.ValueMean)) + 1
	if vlen > w.cfg.ValueMax {
		vlen = w.cfg.ValueMax
	}
	v := make([]byte, vlen)
	for j := range v {
		v[j] = byte('0' + j%10)
	}
	return v
}

// NextOp samples the next operation: a key index and whether it is a GET.
func (w *Workload) NextOp() (int, bool) {
	return w.zipf.Next(), w.rng.Float64() < w.cfg.GetRatio
}

// NextKey samples one more key index from the popularity distribution -
// how a multiget arrival picks its remaining keys.
func (w *Workload) NextKey() int { return w.zipf.Next() }
