package dynamic

import (
	"fmt"
	"strconv"
	"strings"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/model"
)

// The schedule families of the model-spec registry. Parameter order here is
// the canonical spec order (model.Spec.String emits it), so these
// declarations are the grammar of "schedule:..." specs.
func init() {
	model.Schedules.Register("static", model.ScheduleFamily{
		Doc: "every edge alive forever; coincides with the synchronous model",
		New: func(model.Values, int64) (model.Schedule, error) { return Static{}, nil },
	})
	model.Schedules.Register("outage", model.ScheduleFamily{
		Params: []model.Param{
			{Name: "round", Kind: model.IntParam, Default: "1", Doc: "the round the edge is down"},
			{Name: "u", Kind: model.IntParam, Default: "0", Doc: "one endpoint of the edge"},
			{Name: "v", Kind: model.IntParam, Default: "1", Doc: "the other endpoint"},
		},
		Doc: "one edge down for exactly one round — the minimal dynamic fault",
		New: func(v model.Values, _ int64) (model.Schedule, error) {
			if v.Int("round") < 1 {
				return nil, fmt.Errorf("round must be >= 1, got %d", v.Int("round"))
			}
			return OutageOnce{Round: v.Int("round"), Edge: graph.Edge{U: graph.NodeID(v.Int("u")), V: graph.NodeID(v.Int("v"))}}, nil
		},
	})
	model.Schedules.Register("blink", model.ScheduleFamily{
		Params: []model.Param{
			{Name: "u", Kind: model.IntParam, Default: "0", Doc: "one endpoint of the blinking edge"},
			{Name: "v", Kind: model.IntParam, Default: "1", Doc: "the other endpoint"},
			{Name: "period", Kind: model.IntParam, Default: "2", Doc: "the edge is alive every period-th round"},
			{Name: "phase", Kind: model.IntParam, Default: "0", Doc: "alive when round % period == phase"},
		},
		Doc: "one edge alive only every period-th round, all others always up",
		New: func(v model.Values, _ int64) (model.Schedule, error) {
			if v.Int("period") < 1 {
				return nil, fmt.Errorf("period must be >= 1, got %d", v.Int("period"))
			}
			// A negative phase can never equal round % period (>= 0), which
			// would leave the edge permanently dead instead of blinking.
			if p := v.Int("phase"); p < 0 || p >= v.Int("period") {
				return nil, fmt.Errorf("phase must be in [0, period), got %d", p)
			}
			return Blinking{Edge: graph.Edge{U: graph.NodeID(v.Int("u")), V: graph.NodeID(v.Int("v"))}, K: v.Int("period"), Phase: v.Int("phase")}, nil
		},
	})
	model.Schedules.Register("alternating", model.ScheduleFamily{
		Doc: "parity halves of the edge set alive in alternating rounds",
		New: func(model.Values, int64) (model.Schedule, error) { return Alternating{}, nil },
	})
	model.Schedules.Register("loss", model.ScheduleFamily{
		Params: []model.Param{
			{Name: "p", Kind: model.FloatParam, Default: "0.1", Doc: "probability in [0,1] that a copy is lost"},
		},
		Random: true,
		Doc:    "each copy lost independently with probability p, seeded; aperiodic, so no certificates",
		New: func(v model.Values, seed int64) (model.Schedule, error) {
			// The negated range test also rejects NaN.
			p := v.Float("p")
			if !(p >= 0 && p <= 1) {
				return nil, fmt.Errorf("p must be a probability in [0,1], got %g", p)
			}
			return Loss{P: p, Seed: seed}, nil
		},
	})
	model.Schedules.Register("crash", model.ScheduleFamily{
		Params: []model.Param{
			{Name: "nodes", Kind: model.StringParam, Default: "1", Doc: "the crashed nodes, joined by '+'"},
			{Name: "round", Kind: model.IntParam, Default: "1", Doc: "the first round the nodes are down"},
		},
		Doc: "nodes down for good from a round on: they neither receive nor send",
		New: func(v model.Values, _ int64) (model.Schedule, error) {
			if v.Int("round") < 1 {
				return nil, fmt.Errorf("round must be >= 1, got %d", v.Int("round"))
			}
			var nodes []graph.NodeID
			for _, field := range strings.Split(v.String("nodes"), "+") {
				node, err := strconv.Atoi(field)
				if err != nil || node < 0 {
					return nil, fmt.Errorf("nodes must be node IDs joined by '+', got %q", v.String("nodes"))
				}
				nodes = append(nodes, graph.NodeID(node))
			}
			return Crash{Nodes: nodes, Round: v.Int("round")}, nil
		},
	})
}
