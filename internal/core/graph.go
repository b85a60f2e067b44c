package core

import (
	"fmt"
	"sort"

	"datacutter/internal/elastic"
	"datacutter/internal/exec"
)

// FilterFactory creates one filter instance per transparent copy.
type FilterFactory func() Filter

// StreamSpec is a logical unidirectional stream between two filters; see
// exec.StreamSpec.
type StreamSpec = exec.StreamSpec

// Graph is the application processing structure: named filters connected by
// streams. Graphs must be acyclic.
type Graph struct {
	filters     map[string]FilterFactory
	filterOrder []string
	streams     []StreamSpec
	byName      map[string]int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{filters: make(map[string]FilterFactory), byName: make(map[string]int)}
}

// AddFilter registers a filter under a unique name.
func (g *Graph) AddFilter(name string, f FilterFactory) *Graph {
	if name == "" {
		panic("core: empty filter name")
	}
	if _, dup := g.filters[name]; dup {
		panic("core: duplicate filter " + name)
	}
	if f == nil {
		panic("core: nil factory for filter " + name)
	}
	g.filters[name] = f
	g.filterOrder = append(g.filterOrder, name)
	return g
}

// Connect adds a stream named streamName from filter `from` to filter `to`.
func (g *Graph) Connect(from, to, streamName string) *Graph {
	if _, ok := g.byName[streamName]; ok {
		panic("core: duplicate stream " + streamName)
	}
	g.byName[streamName] = len(g.streams)
	g.streams = append(g.streams, StreamSpec{Name: streamName, From: from, To: to})
	return g
}

// Filters returns the filter names in registration order.
func (g *Graph) Filters() []string {
	out := make([]string, len(g.filterOrder))
	copy(out, g.filterOrder)
	return out
}

// Streams returns the stream specs in registration order.
func (g *Graph) Streams() []StreamSpec {
	out := make([]StreamSpec, len(g.streams))
	copy(out, g.streams)
	return out
}

// Factory returns the factory for a filter name.
func (g *Graph) Factory(name string) FilterFactory { return g.filters[name] }

// Validate checks that every stream endpoint exists and the graph is
// acyclic.
func (g *Graph) Validate() error {
	if len(g.filters) == 0 {
		return fmt.Errorf("core: graph has no filters")
	}
	indeg := make(map[string]int, len(g.filters))
	adj := make(map[string][]string)
	for name := range g.filters {
		indeg[name] = 0
	}
	for _, s := range g.streams {
		if _, ok := g.filters[s.From]; !ok {
			return fmt.Errorf("core: stream %s: unknown producer %q", s.Name, s.From)
		}
		if _, ok := g.filters[s.To]; !ok {
			return fmt.Errorf("core: stream %s: unknown consumer %q", s.Name, s.To)
		}
		if s.From == s.To {
			return fmt.Errorf("core: stream %s: self-loop on %q", s.Name, s.From)
		}
		adj[s.From] = append(adj[s.From], s.To)
		indeg[s.To]++
	}
	// Kahn's algorithm for cycle detection.
	var queue []string
	for name, d := range indeg {
		if d == 0 {
			queue = append(queue, name)
		}
	}
	sort.Strings(queue)
	seen := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		seen++
		for _, m := range adj[n] {
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if seen != len(g.filters) {
		return fmt.Errorf("core: graph contains a cycle")
	}
	return nil
}

// PlaceEntry assigns a number of transparent copies of a filter to a host.
type PlaceEntry struct {
	Host   string
	Copies int
}

// Placement maps each filter to one or more (host, copies) assignments. The
// application developer decides decomposition, placement, and copy counts
// (paper §2); the runtime does the rest.
type Placement struct {
	entries map[string][]PlaceEntry
	order   map[string][]string // preserve host order per filter
}

// NewPlacement returns an empty placement.
func NewPlacement() *Placement {
	return &Placement{entries: make(map[string][]PlaceEntry), order: make(map[string][]string)}
}

// Place assigns `copies` transparent copies of filter on host, accumulating
// if called repeatedly for the same (filter, host).
func (p *Placement) Place(filter, host string, copies int) *Placement {
	if copies <= 0 {
		panic("core: Place needs copies >= 1")
	}
	for i, e := range p.entries[filter] {
		if e.Host == host {
			p.entries[filter][i].Copies += copies
			return p
		}
	}
	p.entries[filter] = append(p.entries[filter], PlaceEntry{Host: host, Copies: copies})
	p.order[filter] = append(p.order[filter], host)
	return p
}

// Of returns the placement entries for a filter, in the order hosts were
// first assigned.
func (p *Placement) Of(filter string) []PlaceEntry {
	out := make([]PlaceEntry, len(p.entries[filter]))
	copy(out, p.entries[filter])
	return out
}

// TotalCopies returns the number of copies of a filter across all hosts.
func (p *Placement) TotalCopies(filter string) int {
	n := 0
	for _, e := range p.entries[filter] {
		n += e.Copies
	}
	return n
}

// Hosts returns every distinct host referenced by the placement, sorted.
func (p *Placement) Hosts() []string {
	set := make(map[string]struct{})
	for _, es := range p.entries {
		for _, e := range es {
			set[e.Host] = struct{}{}
		}
	}
	hosts := make([]string, 0, len(set))
	for h := range set {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

// Entries returns the placement as engine-neutral entries, in graph filter
// order then host order: the copy-set layout the runtime instantiates and a
// scale schedule mutates.
func (p *Placement) Entries(g *Graph) []elastic.Entry {
	var out []elastic.Entry
	for _, name := range g.Filters() {
		for _, e := range p.entries[name] {
			out = append(out, elastic.Entry{Filter: name, Host: e.Host, Copies: e.Copies})
		}
	}
	return out
}

// Validate checks that every filter in the graph is placed somewhere.
func (p *Placement) Validate(g *Graph) error {
	for _, name := range g.Filters() {
		if len(p.entries[name]) == 0 {
			return fmt.Errorf("core: filter %q has no placement", name)
		}
	}
	return nil
}
