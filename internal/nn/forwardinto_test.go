package nn

import (
	"math"
	"testing"

	"nora/internal/rng"
	"nora/internal/tensor"
)

// forwardOnly hides an operator's ForwardInto method so the decode step is
// forced through its Forward-plus-copy branch.
type forwardOnly struct{ op LinearOp }

func (f forwardOnly) Name() string                            { return f.op.Name() }
func (f forwardOnly) Forward(x *tensor.Matrix) *tensor.Matrix { return f.op.Forward(x) }

// TestForwardOnlyOpMatchesFastPath: custom LinearOps without a ForwardInto
// fast path must keep producing bit-identical logits, both for a whole
// context read in one segment and one token at a time.
func TestForwardOnlyOpMatchesFastPath(t *testing.T) {
	for _, cfg := range []Config{optConfig(), llamaConfig()} {
		m, err := NewModel(cfg, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		tokens := []int{3, 1, 4, 1, 5, 9, 2, 6}
		fast := NewRunner(m)
		slow := NewRunner(m)
		for _, spec := range m.Linears() {
			slow.SetLinear(spec.Name, forwardOnly{slow.Linear(spec.Name)})
		}
		want := append(allLogits(fast, tokens).Data, fast.Logits(tokens)...)
		got := append(allLogits(slow, tokens).Data, slow.Logits(tokens)...)
		for i, v := range got {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				t.Fatalf("%s: Forward-only logits diverge at %d: %v vs %v", cfg.Name, i, v, want[i])
			}
		}
	}
}
