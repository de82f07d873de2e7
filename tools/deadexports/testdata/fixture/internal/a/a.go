// Package a is the dead-surface gate's fixture: each declaration is a case
// the gate must flag or accept, as its comment says.
package a

import (
	"encoding/json"
	"flag"
	"sort"
	"strings"
)

// Frame.Describe is called by Run.
type Frame struct{}

// Describe is live.
func (Frame) Describe() string { return "frame" }

// Agenda.Describe shares its name with Frame.Describe, but only the test
// calls it: flagged.
type Agenda struct{}

// Describe is dead.
func (Agenda) Describe() string { return "agenda" }

// Store has a Len, but no Less or Swap: it is no sort.Interface, and only
// the test calls Len: flagged. Nothing sets items: flagged too.
type Store struct{ items []string }

// Len is dead.
func (s *Store) Len() int { return len(s.items) }

// Keys is a sort.Interface that sort.Strings-style code sorts through the
// standard library: its methods are accepted without a caller here.
type Keys []string

func (k Keys) Len() int           { return len(k) }
func (k Keys) Less(i, j int) bool { return k[i] < k[j] }
func (k Keys) Swap(i, j int)      { k[i], k[j] = k[j], k[i] }

// Options is a set of settings: Name is set by Run, Verbose and Depth only
// by the test (flagged).
type Options struct {
	Name    string
	Verbose bool
	Depth   int
}

// Plan is built from Options: Name copies the set Options.Name (accepted),
// Depth copies Options.Depth, which only the test sets (flagged).
type Plan struct {
	Name  string
	Depth int
}

// Step is built from a Plan: Name is accepted two copies away from Run's
// literal, Depth flagged two copies away from the test's.
type Step struct {
	Name  string
	Depth int
}

// step copies a Plan's fields. Its copies come before Plan's own in the
// scan, so only a fixpoint settles them.
func step(p Plan) Step { return Step{Name: p.Name, Depth: p.Depth} }

// Limits is filled with defaults. Rate is set by a default fill of a
// parameter only, Spread by one on a copy of the receiver only: both are
// flagged. Burst is filled and also set by Run's literal, Retries is filled
// from the set Spec.Retries: both are accepted.
type Limits struct {
	Rate, Burst, Spread, Retries int
}

// Spec carries a setting that Limits copies.
type Spec struct {
	Retries int
}

// withDefaults fills the defaults of a parameter.
func withDefaults(l Limits, sp Spec) Limits {
	if l.Burst > 0 && l.Rate <= 0 {
		l.Rate = 10 * l.Burst
	}
	if l.Burst == 0 {
		l.Burst = 1
	}
	if 0 == l.Retries {
		l.Retries = sp.Retries
	}
	return l
}

// normalized fills a default on a copy of its receiver.
func (l *Limits) normalized() Limits {
	c := *l
	if c.Spread == 0 {
		c.Spread = c.Rate / 2
	}
	return c
}

// Failure is built locally and filled if empty: Cause is accepted, as the
// fill is the only code that chooses its value.
type Failure struct {
	Op    string
	Cause error
}

func fail(op string, err error) *Failure {
	f := &Failure{Op: op}
	if f.Cause == nil {
		f.Cause = err
	}
	return f
}

// Batch keeps its first error. Err is set only inside an if that tests it
// for nil, but from a parameter: a latch, not a default fill, so accepted.
type Batch struct {
	Err error
}

func (b *Batch) note(err error) {
	if b.Err == nil {
		b.Err = err
	}
}

// clamp is unexported, and only the test calls it: flagged.
func clamp(n int) int { return min(n, 8) }

// Model is called through its interface only.
type Model interface {
	Complete(prompt string) string
	ResetUsage()
}

// accounting's ResetUsage is promoted into Sim and reached through Model.
type accounting struct{ calls int }

// ResetUsage is accepted: Run calls Model.ResetUsage.
func (a *accounting) ResetUsage() { a.calls = 0 }

// Sim implements Model.
type Sim struct {
	accounting
}

// Complete is accepted: Run calls Model.Complete.
func (s *Sim) Complete(prompt string) string { s.calls++; return strings.ToUpper(prompt) }

// Point is initialised positionally.
type Point struct {
	X, Y float64
}

// Record is only ever decoded from JSON, through a wrapper: Key is
// accepted, Skip (which encoding/json never fills) flagged.
type Record struct {
	Key  string `json:"key"`
	Skip string `json:"-"`
}

// Flags has a field set through its address.
type Flags struct {
	N int
}

// Counter counts.
type Counter struct{ n int }

// Inc is live.
func (c *Counter) Inc() { c.n++ }

// Stats has a field set through a pointer-receiver method.
type Stats struct {
	Hits Counter
}

// Depth calls itself, but only the test calls it from outside: flagged.
func Depth(n int) int {
	if n == 0 {
		return 0
	}
	return 1 + Depth(n-1)
}

func decode(b []byte, v any) error { return json.Unmarshal(b, v) }

// Run uses the live surface.
func Run(fs *flag.FlagSet) (string, error) {
	var m Model = &Sim{}
	m.ResetUsage()
	o := Options{Name: m.Complete("x")}
	l := withDefaults(Limits{Burst: 2}, Spec{Retries: 3})
	n := l.normalized()
	sp := step(Plan{Name: o.Name, Depth: o.Depth})
	fl := fail(sp.Name, nil)
	var b Batch
	b.note(fl.Cause)
	var st Stats
	st.Hits.Inc()
	var f Flags
	fs.IntVar(&f.N, "n", 0, "count")
	k := Keys{"b", "a"}
	sort.Sort(k)
	_ = Point{1, 2}
	var r Record
	if err := decode([]byte(`{"key":"k"}`), &r); err != nil {
		return "", err
	}
	if b.Err != nil || n.Spread+n.Retries+sp.Depth < 0 {
		return "", b.Err
	}
	return Frame{}.Describe() + o.Name + r.Key + r.Skip + k[0], nil
}
