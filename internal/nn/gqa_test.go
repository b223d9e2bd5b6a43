package nn

import (
	"bytes"
	"testing"

	"nora/internal/autograd"
	"nora/internal/rng"
)

func gqaConfig() Config {
	cfg := llamaConfig()
	cfg.Name = "gqa-test"
	cfg.NKVHeads = 2 // 4 query heads sharing 2 KV heads
	return cfg
}

func TestGQAConfigValidation(t *testing.T) {
	good := gqaConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid GQA config rejected: %v", err)
	}
	if good.KVHeads() != 2 || good.KVDim() != 2*good.HeadDim() {
		t.Fatalf("KVHeads/KVDim wrong: %d %d", good.KVHeads(), good.KVDim())
	}
	mha := llamaConfig()
	if mha.KVHeads() != mha.NHeads || mha.KVDim() != mha.DModel {
		t.Fatal("NKVHeads=0 must mean full MHA")
	}
	for _, bad := range []int{3, 5, -1} { // 4 % 3 != 0, > NHeads, negative
		c := gqaConfig()
		c.NKVHeads = bad
		if c.Validate() == nil {
			t.Fatalf("NKVHeads=%d accepted", bad)
		}
	}
}

func TestGQAShrinksKVProjections(t *testing.T) {
	gqa, err := NewModel(gqaConfig(), rng.New(1001))
	if err != nil {
		t.Fatal(err)
	}
	mha, _ := NewModel(llamaConfig(), rng.New(1001))
	if gqa.NumParams() >= mha.NumParams() {
		t.Fatal("GQA must reduce parameter count")
	}
	for _, spec := range gqa.Linears() {
		switch {
		case spec.Name == "layer0.attn.k" || spec.Name == "layer0.attn.v":
			if spec.W.Cols != gqaConfig().KVDim() {
				t.Fatalf("%s: width %d, want %d", spec.Name, spec.W.Cols, gqaConfig().KVDim())
			}
		case spec.Name == "layer0.attn.q":
			if spec.W.Cols != gqaConfig().DModel {
				t.Fatal("q projection must stay full width")
			}
		}
	}
}

// The inference Runner must agree with the autograd training forward under
// GQA — pinning the head-group mapping across both implementations.
func TestGQARunnerMatchesTrainingForward(t *testing.T) {
	m, err := NewModel(gqaConfig(), rng.New(1002))
	if err != nil {
		t.Fatal(err)
	}
	tokens := []int{5, 1, 29, 8, 0, 17, 3, 3, 11}
	tp := autograd.NewTape()
	want := m.ForwardTrain(tp, tokens).Val
	got := allLogits(NewRunner(m), tokens)
	if !got.AllClose(want, 2e-4*(1+want.AbsMax())) {
		t.Fatal("GQA runner and training forward diverge")
	}
}

func TestGQATrainingMemorizes(t *testing.T) {
	if testing.Short() {
		t.Skip("training in test")
	}
	m, _ := NewModel(gqaConfig(), rng.New(1004))
	opt := autograd.NewAdam(m.Params(), 0.01)
	opt.ClipNorm = 1
	batch := [][]int{{1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12}}
	first := m.LossOnBatch(batch)
	opt.Step()
	var last float64
	for i := 0; i < 80; i++ {
		last = m.LossOnBatch(batch)
		opt.Step()
	}
	if last > first/5 {
		t.Fatalf("GQA training failed: %v → %v", first, last)
	}
}

func TestGQASaveLoadRoundTrip(t *testing.T) {
	m, _ := NewModel(gqaConfig(), rng.New(1005))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cfg.NKVHeads != 2 {
		t.Fatalf("NKVHeads lost in round trip: %+v", m2.Cfg)
	}
	tokens := []int{1, 2, 3}
	if !allLogits(NewRunner(m), tokens).AllClose(allLogits(NewRunner(m2), tokens), 0) {
		t.Fatal("GQA round trip not bit-identical")
	}
}

// Version-1 files (written before the NKVHeads field) must still load.
func TestLoadV1Compatibility(t *testing.T) {
	m, _ := NewModel(optConfig(), rng.New(1006))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// rewrite as a v1 file: v1 magic + drop the 9th int64 (NKVHeads).
	// layout: magic(8) nameLen(4) name cfgInts(9×8) ropeBase(8) ...
	nameLen := int(uint32(data[8]) | uint32(data[9])<<8 | uint32(data[10])<<16 | uint32(data[11])<<24)
	intsOff := 12 + nameLen
	v1 := append([]byte(nil), []byte("NORAMDL1")...)
	v1 = append(v1, data[8:intsOff+8*8]...) // name + first 8 ints
	v1 = append(v1, data[intsOff+9*8:]...)  // skip NKVHeads, keep the rest
	m2, err := Load(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 file rejected: %v", err)
	}
	if m2.Cfg.NKVHeads != 0 {
		t.Fatal("v1 load must default NKVHeads to 0")
	}
	tokens := []int{1, 2, 3}
	if !allLogits(NewRunner(m), tokens).AllClose(allLogits(NewRunner(m2), tokens), 0) {
		t.Fatal("v1 round trip changed the model")
	}
}
