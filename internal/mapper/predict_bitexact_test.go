package mapper_test

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"sort"
	"testing"

	"clara"
	"clara/internal/nf"
)

// predictDigest pins every Prediction field over corpus NF × target ×
// corpusWorkloads, predicted once with default options and once with
// ResourceLoad on. adviseDigest covers only the three fields a ranking
// shows; this covers the per-class rows, the cycle components, the
// bottleneck and the energy figures too.
const predictDigest = "c81fb7f95febbfacfff14b58707848194d7c2cfd0ee827fad63c7b77990e82ee"

// hashPrediction folds every field of p (or the error text) into h.
func hashPrediction(h hash.Hash, p *clara.Prediction, err error) {
	if err != nil {
		hashString(h, "err:"+err.Error())
		return
	}
	hashString(h, p.NFName)
	hashString(h, p.NICName)
	hashInt(h, int64(len(p.PerClass)))
	for _, c := range p.PerClass {
		hashString(h, c.Name)
		hashFloat(h, c.Prob)
		hashFloat(h, c.Cycles)
		hashFloat(h, c.EnergyNJ)
		hashInt(h, int64(c.Verdict))
	}
	hashFloat(h, p.MeanCycles)
	hashFloat(h, p.MeanNanos)
	hashFloat(h, p.FixedCycles)
	hashFloat(h, p.QueueCycles)
	hashFloat(h, p.ThroughputPPS)
	hashString(h, p.Bottleneck)
	hashBool(h, p.Saturated)
	hashFloat(h, p.EnergyNJ)
	hashFloat(h, p.PowerWatts)
	keys := make([]string, 0, len(p.ResourceLoad))
	for k := range p.ResourceLoad {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	hashInt(h, int64(len(keys)))
	for _, k := range keys {
		hashString(h, k)
		hashFloat(h, p.ResourceLoad[k])
	}
}

// TestPredictBitExact checks that predictions are bit-identical to the
// recorded ones.
func TestPredictBitExact(t *testing.T) {
	h := sha256.New()
	all := nf.All()
	for _, resourceLoad := range []bool{false, true} {
		opts := clara.PredictOptions{ResourceLoad: resourceLoad}
		for _, name := range nf.Names() {
			nfo, err := clara.CompileNF(all[name].Source)
			if err != nil {
				t.Fatal(err)
			}
			for _, target := range clara.Targets() {
				nic, err := clara.NewTarget(target)
				if err != nil {
					t.Fatal(err)
				}
				for _, spec := range corpusWorkloads {
					wl, err := clara.ParseWorkload(spec)
					if err != nil {
						t.Fatal(err)
					}
					hashString(h, name+"|"+target+"|"+spec)
					m, err := nfo.Map(nic, wl, clara.Hints{})
					if err != nil {
						hashString(h, "map:"+err.Error())
						continue
					}
					p, err := nfo.PredictMapped(nic, m, wl, opts)
					hashPrediction(h, p, err)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != predictDigest {
		t.Errorf("predict digest = %s, want %s", got, predictDigest)
	}
}
