// Package ppml models hybrid HE/MPC private-inference frameworks well
// enough to reproduce the paper's application-level results: the
// execution-time breakdowns of Figure 1(a), the nonlinear-operator
// microbenchmarks of Figure 15, the unified-architecture MatMul study
// of Figure 16, and the end-to-end latencies of Table 5.
//
// The models are cost models, not executable networks: each neural
// network is an inventory of nonlinear elements (ReLU/GELU/Softmax/
// LayerNorm activations) and linear-layer MACs; each framework prices
// those elements in OT correlations consumed, online bytes, and rounds
// (constants documented in frameworks.go). The OT-extension
// preprocessing time then comes from a pluggable backend: sim/cpu's
// software baseline on the frameworks' OT threads, the A6000 as
// sim/cpu's full-thread host divided by cpu.A6000Speedup (a ratio, not
// a GPU model), or the Ironman NMP simulator.
package ppml

// Op enumerates the nonlinear operators the paper benchmarks.
type Op int

const (
	ReLU Op = iota
	GELU
	Softmax
	LayerNorm
	numOps
)

func (o Op) String() string {
	switch o {
	case ReLU:
		return "ReLU"
	case GELU:
		return "GELU"
	case Softmax:
		return "Softmax"
	case LayerNorm:
		return "LayerNorm"
	default:
		return "Op?"
	}
}

// Model is a neural network's cost-relevant inventory.
type Model struct {
	Name        string
	Transformer bool
	// Elems counts activation elements per nonlinear op over one
	// inference (ImageNet 224x224 for CNNs; sequence length 128 for
	// language models, 197 patches for ViT).
	Elems map[Op]int64
	// MACs is the multiply-accumulate count of all linear layers.
	MACs int64
	// NonlinLayers is the number of nonlinear layers (each costs
	// protocol rounds).
	NonlinLayers int
}

// The model zoo of §6.5. Element counts are derived from the standard
// layer shapes (sum of activation-map sizes for CNNs; layers x tokens x
// hidden sizes for Transformers) and rounded to 0.1M.
var (
	MobileNetV2 = Model{Name: "MobileNetV2", Elems: counts(6_200_000, 0, 0, 0), MACs: 300e6, NonlinLayers: 35}
	SqueezeNet  = Model{Name: "SqueezeNet", Elems: counts(3_800_000, 0, 0, 0), MACs: 360e6, NonlinLayers: 26}
	ResNet18    = Model{Name: "ResNet18", Elems: counts(2_300_000, 0, 0, 0), MACs: 1.8e9, NonlinLayers: 17}
	ResNet34    = Model{Name: "ResNet34", Elems: counts(3_600_000, 0, 0, 0), MACs: 3.6e9, NonlinLayers: 33}
	ResNet50    = Model{Name: "ResNet50", Elems: counts(9_400_000, 0, 0, 0), MACs: 4.1e9, NonlinLayers: 49}
	DenseNet121 = Model{Name: "DenseNet121", Elems: counts(15_000_000, 0, 0, 0), MACs: 2.9e9, NonlinLayers: 120}

	ViT        = transformer("ViT", 12, 12, 197, 768, 3072)
	BERTBase   = transformer("BERT-Base", 12, 12, 128, 768, 3072)
	BERTLarge  = transformer("BERT-Large", 24, 16, 128, 1024, 4096)
	GPT2Small  = transformer("GPT2-Small", 12, 12, 128, 768, 3072)
	GPT2Medium = transformer("GPT2-Medium", 24, 16, 128, 1024, 4096)
	GPT2Large  = transformer("GPT2-Large", 36, 20, 128, 1280, 5120)
)

// CNNs and Transformers group the zoo by family.
var (
	CNNs         = []Model{MobileNetV2, SqueezeNet, ResNet18, ResNet34, ResNet50, DenseNet121}
	Transformers = []Model{ViT, BERTBase, BERTLarge, GPT2Large}
)

func counts(relu, gelu, softmax, ln int64) map[Op]int64 {
	return map[Op]int64{ReLU: relu, GELU: gelu, Softmax: softmax, LayerNorm: ln}
}

// transformer derives the inventory from architecture shape: per layer,
// GELU over the FFN inner dim, Softmax over heads x seq^2 attention
// scores, LayerNorm twice per layer (plus one final).
func transformer(name string, layers, heads, seq, hidden, ffn int) Model {
	L, S, H, F := int64(layers), int64(seq), int64(hidden), int64(ffn)
	gelu := L * S * F
	softmax := L * int64(heads) * S * S
	ln := (2*L + 1) * S * H
	// MACs: QKV+proj (4*S*H*H) + FFN (2*S*H*F) + attention (2*heads*S*S*(H/heads)).
	macs := L * (4*S*H*H + 2*S*H*F + 2*S*S*H)
	return Model{
		Name:         name,
		Transformer:  true,
		Elems:        counts(0, gelu, softmax, ln),
		MACs:         macs,
		NonlinLayers: layers * 4,
	}
}

// TotalNonlinear returns the total activation elements of a model.
func (m Model) TotalNonlinear() int64 {
	var t int64
	for _, v := range m.Elems {
		t += v
	}
	return t
}

// ModelByName finds a zoo entry.
func ModelByName(name string) (Model, bool) {
	for _, m := range append(append([]Model{}, CNNs...), ViT, BERTBase, BERTLarge, GPT2Small, GPT2Medium, GPT2Large) {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}
