package fmgate

import (
	"fmt"
	"sort"
	"strings"
)

// Role names a pipeline-side FM consumer. The paper assigns different models
// to different roles (GPT-4 selects operators, GPT-3.5-turbo generates
// functions); the router keeps that assignment in one place so CLIs and the
// experiment harness configure gateways per role, not per call site.
type Role string

// The two SMARTFEAT roles (§4.1).
const (
	RoleSelector  Role = "selector"
	RoleGenerator Role = "generator"
)

// Router routes completions to per-role gateways and aggregates their usage
// and traffic metrics for reporting.
type Router struct {
	gates map[Role]*Gateway
	order []Role
}

// NewRouter builds an empty router.
func NewRouter() *Router {
	return &Router{gates: make(map[Role]*Gateway)}
}

// Route assigns a gateway to a role, replacing any previous assignment.
func (r *Router) Route(role Role, g *Gateway) *Router {
	if _, seen := r.gates[role]; !seen {
		r.order = append(r.order, role)
	}
	r.gates[role] = g
	return r
}

// Gate returns the gateway for a role (nil if unassigned). The result
// satisfies fm.Model, so it plugs directly into core.Options.
func (r *Router) Gate(role Role) *Gateway { return r.gates[role] }

// Roles lists assigned roles in assignment order.
func (r *Router) Roles() []Role { return append([]Role(nil), r.order...) }

// Metrics sums gateway traffic counters across roles.
func (r *Router) Metrics() Metrics {
	var total Metrics
	for _, role := range r.order {
		total.Add(r.gates[role].Metrics())
	}
	return total
}

// Report renders a per-role usage/metrics summary — a stable rendering of
// the gateways' registry-backed instruments: roles sorted lexically,
// backends sorted by name, so consecutive reports diff cleanly.
func (r *Router) Report() string {
	roles := append([]Role(nil), r.order...)
	sort.Slice(roles, func(i, j int) bool { return roles[i] < roles[j] })
	var b strings.Builder
	for _, role := range roles {
		g := r.gates[role]
		fmt.Fprintf(&b, "%-9s %s: %s\n", role, g.Name(), g.Usage())
		fmt.Fprintf(&b, "%-9s gateway: %s\n", role, g.Metrics())
		if pm, ok := g.PoolMetrics(); ok {
			fmt.Fprintf(&b, "%-9s pool: %s\n", role, pm)
			backends := append([]BackendMetrics(nil), pm.Backends...)
			sort.Slice(backends, func(i, j int) bool { return backends[i].Name < backends[j].Name })
			for _, bm := range backends {
				fmt.Fprintf(&b, "%-9s   backend %s\n", role, bm)
			}
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
