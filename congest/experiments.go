package congest

import (
	"context"
	"io"

	"repro/internal/expt"
)

// ExperimentInfo describes one registered experiment (a Table-1 row,
// design ablation or churn family member).
type ExperimentInfo struct {
	ID         string `json:"id"`
	Title      string `json:"title"`
	PaperBound string `json:"paperBound"`
}

// Experiments returns the registered experiments in presentation order.
func Experiments() []ExperimentInfo {
	reg := expt.Registry()
	out := make([]ExperimentInfo, len(reg))
	for i, e := range reg {
		out[i] = ExperimentInfo{ID: e.ID, Title: e.Title, PaperBound: e.PaperBound}
	}
	return out
}

// SweepSpec configures an experiment sweep (cmd/experiments semantics).
type SweepSpec struct {
	// Sizes are the network sizes swept; nil selects defaults.
	Sizes []int `json:"sizes,omitempty"`
	// Seed drives all randomness.
	Seed int64 `json:"seed,omitempty"`
	// Bandwidth is B in words/round (0 = 2).
	Bandwidth int `json:"bandwidth,omitempty"`
	// Quick shrinks defaults for smoke runs.
	Quick bool `json:"quick,omitempty"`
}

// Table is a finished experiment's scaling table.
type Table struct {
	t *expt.Table
}

// ID returns the experiment id the table belongs to.
func (t *Table) ID() string { return t.t.ID }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error { return t.t.Render(w) }

// WriteCSV writes the table's points as CSV.
func (t *Table) WriteCSV(w io.Writer) error { return t.t.WriteCSV(w) }

// RunExperiment runs one registered experiment by id on GOMAXPROCS sweep
// workers; the table is byte-identical at every width. Cancelling ctx
// stops the sweep between cells and returns ctx.Err().
func RunExperiment(ctx context.Context, id string, spec SweepSpec) (*Table, error) {
	e, err := expt.ByID(id)
	if err != nil {
		return nil, err
	}
	tbl, err := e.Run(expt.Config{
		Ctx:       ctx,
		Sizes:     spec.Sizes,
		Seed:      spec.Seed,
		Bandwidth: spec.Bandwidth,
		Quick:     spec.Quick,
	})
	if err != nil {
		return nil, err
	}
	return &Table{t: tbl}, nil
}
