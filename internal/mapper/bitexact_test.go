package mapper_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"testing"

	"clara"
	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/workload"
)

// corpusWorkloads spans flow counts, packet sizes and offered rates wide
// enough to move states between regions, toggle the flow cache and make
// the Θ utilization rows bind.
var corpusWorkloads = []string{
	"",
	"flows=100,size=64,rate=100000",
	"flows=10000,size=1400,rate=20000",
	"flows=1000000,size=300,rate=1000000,tcp=0.1",
	"flows=50,size=1000,rate=5000000,zipf=1.2",
	"flows=64000,size=128,rate=60000,packets=200000",
	"flows=2000,size=600,rate=400000,tcp=1",
	"flows=10,size=1500,rate=10000000",
}

// mapCase is one mapper input of the bit-exactness corpus.
type mapCase struct {
	nf    string
	name  string
	g     *cir.Graph
	nic   *lnic.LNIC
	wl    mapper.Workload
	hints mapper.Hints
}

// hintVariants returns the strategy hints exercised per NF and target:
// none, each state pinned to the slowest and to the fastest region, the
// flow cache forbidden, and software parsing.
func hintVariants(g *cir.Graph, nic *lnic.LNIC) []mapper.Hints {
	out := []mapper.Hints{{}, {DisableFlowCache: true}, {SoftwareParse: true}}
	if len(g.Prog.State) > 0 {
		slow, fast := map[string]string{}, map[string]string{}
		for _, s := range g.Prog.State {
			slow[s.Name] = nic.Mems[len(nic.Mems)-1].Name
			fast[s.Name] = nic.Mems[0].Name
		}
		out = append(out, mapper.Hints{PinState: slow}, mapper.Hints{PinState: fast})
	}
	return out
}

// mapCorpus enumerates every corpus NF × LNIC profile × workload × hint.
func mapCorpus(t testing.TB) []mapCase {
	t.Helper()
	all := nf.All()
	var out []mapCase
	for _, name := range nf.Names() {
		g, err := cir.BuildGraph(all[name].MustCompile())
		if err != nil {
			t.Fatal(err)
		}
		for _, pname := range lnic.ProfileNames() {
			nic := lnic.Profiles()[pname]()
			for wi, spec := range corpusWorkloads {
				p, err := workload.ParseProfile(spec)
				if err != nil {
					t.Fatal(err)
				}
				for hi, h := range hintVariants(g, nic) {
					out = append(out, mapCase{
						nf:   name,
						name: name + "/" + pname + "/w" + string(rune('0'+wi)) + "/h" + string(rune('0'+hi)),
						g:    g, nic: nic, wl: mapper.FromProfile(p), hints: h,
					})
				}
			}
		}
	}
	return out
}

func hashInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func hashFloat(h hash.Hash, f float64) { hashInt(h, int64(math.Float64bits(f))) }

func hashBool(h hash.Hash, v bool) {
	if v {
		hashInt(h, 1)
	} else {
		hashInt(h, 0)
	}
}

func hashString(h hash.Hash, s string) {
	hashInt(h, int64(len(s)))
	h.Write([]byte(s))
}

// hashMapping folds every decision and the exact objective bits of m (or
// the error text) into h.
func hashMapping(h hash.Hash, m *mapper.Mapping, err error) {
	if err != nil {
		hashString(h, "err:"+err.Error())
		return
	}
	hashInt(h, int64(len(m.NodeUnit)))
	for _, u := range m.NodeUnit {
		hashInt(h, int64(u))
	}
	states := make([]string, 0, len(m.StateMem))
	for s := range m.StateMem {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		hashString(h, s)
		hashInt(h, int64(m.StateMem[s]))
		hashBool(h, m.UseFlowCache[s])
	}
	hashInt(h, int64(len(m.UseFlowCache)))
	hashBool(h, m.ChecksumOnAccel)
	hashBool(h, m.CryptoOnAccel)
	hashBool(h, m.ParseOnEngine)
	hashFloat(h, m.CostCycles)
	hashInt(h, int64(m.SolverNodes))
}

// mapperDigests pins Map over the corpus, one SHA-256 per NF. They were
// recorded with the dense-tableau simplex (internal/ilp/reference_test.go)
// solving every LP; any change to a mapping, its objective bits or its
// branch-and-bound node count changes a digest.
var mapperDigests = map[string]string{
	"dpi":          "a2bf98f5c7fee3e296fd0df0073a246e22201b3e55dd586dce6bf42149777cc1",
	"firewall":     "196aaf1b3dd64726f095b711be83c2189be8535f3c1cbae6ceebef472c8ec58a",
	"flowstats":    "869f7da0ca4252dd1afcf3c66b8a1a080e7f2e6eb2021755868dda6c49873e59",
	"heavyhitter":  "8cc6a28c9e3d0d27a34d13792f15c0edf7c151723a6a6d25bc7b351fcaba9f56",
	"loadbalancer": "b1e1e5a74cefbf4785e0c157c21b9240e93afa7ddf4a4e69a946427a633fcfd3",
	"lpm":          "c4e1d665d7b4854514577ea456ac640b1f74ab4266d86ba25d1b38106797fe12",
	"metering":     "3a129855d6ce7811937d9465acf6b04247e7de53666a1405fa49561b241d1b5e",
	"nat":          "1fc1071f64318d19bc02fc2c18023376bd3620beff0b4ec7595a1ff5437f7aa8",
	"nat-full":     "f92c66866d9968e4062df3d433cbc34d64afdfa947e9430b482cdf30c1e1c3cf",
	"ratelimiter":  "727ed9a6fb5cbafe84ced916c0c7a0194c0d95654fef68c727b912de4a15bb3f",
	"syncookie":    "9c1b5a1c48c2185e5642261da2fb496608012edb0d880e4dea5ae1460b5544e6",
	"vnfchain":     "b2baf4a8101ba21d15ab64840d0545dd20ed150058ea8e106187f93f439684cd",
}

// adviseDigest pins AdviseParallel(…, 1) over every corpus NF × workload,
// recorded alongside mapperDigests.
const adviseDigest = "177eb2ac815c5cf7483c45d4cc4d63526a18415c707b2b27d297de2dba013784"

// TestMapperBitExact checks that the ILP mappings and advise rankings are
// bit-identical to the recorded ones.
func TestMapperBitExact(t *testing.T) {
	hs := map[string]hash.Hash{}
	branched := 0
	for _, c := range mapCorpus(t) {
		h, ok := hs[c.nf]
		if !ok {
			h = sha256.New()
			hs[c.nf] = h
		}
		hashString(h, c.name)
		m, err := mapper.Map(c.g, c.nic, c.wl, c.hints)
		hashMapping(h, m, err)
		if err == nil && m.SolverNodes > 1 {
			branched++
		}
	}
	if branched == 0 {
		t.Error("no corpus case needed branch and bound; the corpus no longer covers branching")
	}
	for _, n := range nf.Names() {
		got := hex.EncodeToString(hs[n].Sum(nil))
		if want := mapperDigests[n]; got != want {
			t.Errorf("Map digest for %s = %s, want %s", n, got, want)
		}
	}

	h := sha256.New()
	all := nf.All()
	for _, name := range nf.Names() {
		nfo, err := clara.CompileNF(all[name].Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range corpusWorkloads {
			wl, err := clara.ParseWorkload(spec)
			if err != nil {
				t.Fatal(err)
			}
			adv, err := clara.AdviseParallel(nfo, wl, 1)
			if err != nil {
				t.Fatalf("%s %q: %v", name, spec, err)
			}
			hashString(h, name+"|"+spec)
			for _, a := range adv {
				hashString(h, a.Target)
				hashBool(h, a.Feasible)
				hashString(h, a.Reason)
				hashFloat(h, a.MeanCycles)
				hashFloat(h, a.MeanNanos)
				hashFloat(h, a.Throughput)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != adviseDigest {
		t.Errorf("advise digest = %s, want %s", got, adviseDigest)
	}
	t.Logf("branched cases: %d", branched)
}

// modelTextDigest pins Model.String over every corpus model, recorded
// alongside mapperDigests: the names built on demand must print exactly
// as the eagerly formatted ones did.
const modelTextDigest = "46a6fc1ece72c9754575f465346098e445592e9e3c899a8769e2b3bf62008039"

func TestModelTextUnchanged(t *testing.T) {
	h := sha256.New()
	for _, c := range mapCorpus(t) {
		hashString(h, c.name)
		m, err := mapper.Encode(c.g, c.nic, c.wl, c.hints)
		if err != nil {
			hashString(h, "err:"+err.Error())
			continue
		}
		hashString(h, m.String())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != modelTextDigest {
		t.Errorf("model text digest = %s, want %s", got, modelTextDigest)
	}
}
