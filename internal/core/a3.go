package core

import (
	"repro/internal/sim"
)

// NewA3 builds Algorithm A3 (Proposition 3): each node joins X independently
// with probability 1/(9 n^eps), then the network runs A(X, r) with
// r = sqrt(54 n^{1+eps} log n). For any triangle that is not eps-heavy, the
// output contains it with constant probability. Round complexity:
// O(n^{1-eps} + n^{(1+eps)/2} log n).
func NewA3(p Params) (*sim.Schedule, func(id int) PhaseHandler) {
	return NewAXR(p, AXROptions{}) // nil InX => per-node sampling, default r
}
