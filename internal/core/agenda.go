// Package core implements SMARTFEAT itself: the operator selector and
// function generator of §3, orchestrated as the iterative feature-generation
// pipeline, with the §3.3 verification step and the original-feature drop
// heuristic. It interacts with a foundation model (fm.Model) exclusively at
// the feature level — the paper's efficiency claim — and compiles the FM's
// transformation output into executable dataframe operations.
package core

import (
	"fmt"
	"strings"

	"smartfeat/internal/dataframe"
	"smartfeat/internal/fm"
)

// Agenda is the evolving dataset feature description ("data agenda") the
// operator selector shows the FM: every feature's name, type, basic
// statistics and natural-language description. New features are appended as
// they are generated (Figure 2: "updated to data_agenda").
//
// A column is summarised once, when it enters the agenda, and its rendered
// line is kept: every prompt repeats the agenda, and rescanning each column
// for its statistics per prompt would cost far more than the prompt itself.
// The snapshot stays exact because pipeline columns are never mutated in
// place; they are only added to or dropped from the frame.
type Agenda struct {
	frame        *dataframe.Frame
	target       string
	targetDesc   string
	descriptions map[string]string
	lines        map[string]string // column → rendered agenda line
	order        []string          // column presentation order (insertion order)
}

// NewAgenda builds an agenda over the frame's non-target columns.
// descriptions maps column name → data-card text; columns without an entry
// fall back to their name (the minimal-input regime of §4.2).
func NewAgenda(f *dataframe.Frame, target, targetDesc string, descriptions map[string]string) *Agenda {
	a := &Agenda{
		frame:        f,
		target:       target,
		targetDesc:   targetDesc,
		descriptions: make(map[string]string),
		lines:        make(map[string]string),
	}
	for _, name := range f.Names() {
		if name != target {
			a.enter(name, descriptions[name])
		}
	}
	return a
}

// Target returns the prediction-class column name.
func (a *Agenda) Target() string { return a.target }

// TargetDescription returns the prediction-class description.
func (a *Agenda) TargetDescription() string {
	if a.targetDesc == "" {
		return a.target
	}
	return a.targetDesc
}

// Describe returns the description of a column.
func (a *Agenda) Describe(name string) string { return a.descriptions[name] }

// Columns returns the agenda's column names in presentation order.
func (a *Agenda) Columns() []string {
	return append([]string(nil), a.order...)
}

// Add registers a newly generated feature with its description. The column
// must already exist in the frame.
func (a *Agenda) Add(name, description string) error {
	if !a.frame.Has(name) {
		return fmt.Errorf("core: agenda add: column %q not in frame", name)
	}
	if _, dup := a.descriptions[name]; dup {
		return fmt.Errorf("core: agenda add: column %q already present", name)
	}
	a.enter(name, description)
	return nil
}

// enter appends a frame column to the agenda and snapshots its summary line.
// An empty description falls back to the column name.
func (a *Agenda) enter(name, description string) {
	info := fm.SeriesColumn(a.frame.Column(name), description)
	a.order = append(a.order, name)
	a.descriptions[name] = info.Description
	a.lines[name] = fm.FormatAgendaColumn(info)
}

// Remove deletes a column from the agenda (it stays in the frame unless the
// caller drops it there too).
func (a *Agenda) Remove(name string) {
	delete(a.descriptions, name)
	delete(a.lines, name)
	kept := a.order[:0]
	for _, n := range a.order {
		if n != name {
			kept = append(kept, n)
		}
	}
	a.order = kept
}

// Has reports whether the agenda lists a column.
func (a *Agenda) Has(name string) bool {
	_, ok := a.descriptions[name]
	return ok
}

// Render produces the "Dataset description:" block of a prompt.
func (a *Agenda) Render() string {
	var b strings.Builder
	b.WriteString("Dataset description:\n")
	for _, name := range a.order {
		b.WriteString(a.lines[name])
		b.WriteByte('\n')
	}
	return b.String()
}
