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
// the test calls Len: flagged.
type Store struct{ items []string }

// Len is dead.
func (s *Store) Len() int { return len(s.items) }

// Keys is a sort.Interface that sort.Strings-style code sorts through the
// standard library: its methods are accepted without a caller here.
type Keys []string

func (k Keys) Len() int           { return len(k) }
func (k Keys) Less(i, j int) bool { return k[i] < k[j] }
func (k Keys) Swap(i, j int)      { k[i], k[j] = k[j], k[i] }

// Options is a set of settings: Name is set by Run, Verbose only by the
// test (flagged).
type Options struct {
	Name    string
	Verbose bool
}

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
	return Frame{}.Describe() + o.Name + r.Key + r.Skip + k[0], nil
}
