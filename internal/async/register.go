package async

import (
	"fmt"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/model"
)

// The adversary families of the model-spec registry. Parameter order here
// is the canonical spec order (model.Spec.String emits it), so these
// declarations are the grammar of "adversary:..." specs.
func init() {
	model.Adversaries.Register("sync", model.AdversaryFamily{
		Doc: "zero extra delay everywhere; coincides with the synchronous model",
		New: func(model.Values, int64) (model.Adversary, error) { return SyncAdversary{}, nil },
	})
	model.Adversaries.Register("collision", model.AdversaryFamily{
		Doc: "the paper's Figure 5 adversary: holds back all but the lowest-sender copy of colliding messages",
		New: func(model.Values, int64) (model.Adversary, error) { return CollisionDelayer{}, nil },
	})
	model.Adversaries.Register("hold", model.AdversaryFamily{
		Params: []model.Param{
			{Name: "node", Kind: model.IntParam, Default: "0", Doc: "the slow sender"},
			{Name: "extra", Kind: model.IntParam, Default: "1", Doc: "extra delay on its messages"},
		},
		Doc: "delays every message sent by one node by a constant",
		New: func(v model.Values, _ int64) (model.Adversary, error) {
			if v.Int("extra") < 0 {
				return nil, fmt.Errorf("extra must be >= 0, got %d", v.Int("extra"))
			}
			return HoldNode{Node: graph.NodeID(v.Int("node")), Extra: v.Int("extra")}, nil
		},
	})
	model.Adversaries.Register("uniform", model.AdversaryFamily{
		Params: []model.Param{
			{Name: "extra", Kind: model.IntParam, Default: "1", Doc: "constant extra delay on every message"},
		},
		Doc: "stretches the synchronous run uniformly; termination-preserving control",
		New: func(v model.Values, _ int64) (model.Adversary, error) {
			if v.Int("extra") < 0 {
				return nil, fmt.Errorf("extra must be >= 0, got %d", v.Int("extra"))
			}
			return UniformDelayer{Extra: v.Int("extra")}, nil
		},
	})
	model.Adversaries.Register("edge", model.AdversaryFamily{
		Params: []model.Param{
			{Name: "u", Kind: model.IntParam, Default: "0", Doc: "one endpoint of the slow link"},
			{Name: "v", Kind: model.IntParam, Default: "1", Doc: "the other endpoint"},
			{Name: "extra", Kind: model.IntParam, Default: "1", Doc: "extra delay on that link"},
		},
		Doc: "delays every message crossing one undirected edge",
		New: func(v model.Values, _ int64) (model.Adversary, error) {
			if v.Int("extra") < 0 {
				return nil, fmt.Errorf("extra must be >= 0, got %d", v.Int("extra"))
			}
			return EdgeDelayer{Edge: graph.Edge{U: graph.NodeID(v.Int("u")), V: graph.NodeID(v.Int("v"))}, Extra: v.Int("extra")}, nil
		},
	})
	model.Adversaries.Register("random", model.AdversaryFamily{
		Params: []model.Param{
			{Name: "max", Kind: model.IntParam, Default: "3", Doc: "delays drawn uniformly from {0..max}"},
		},
		Random: true,
		Doc:    "seeded random delays; no certificates (non-deterministic)",
		New: func(v model.Values, seed int64) (model.Adversary, error) {
			if v.Int("max") < 0 {
				return nil, fmt.Errorf("max must be >= 0, got %d", v.Int("max"))
			}
			return NewRandomAdversary(seed, v.Int("max")), nil
		},
	})
}
