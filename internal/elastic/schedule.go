package elastic

import "fmt"

// ScaleStep is one seeded copy-set membership change, applied at a
// work-cycle boundary: before unit of work BeforeUOW starts, the (Filter,
// Host) placement entry's copy count becomes Copies. Steps are the
// deterministic counterpart of the live autoscale controller — the
// conformance harness seeds them to prove the delivery oracles hold across
// membership changes, and engines accept them through their Options so a
// recorded scaling run can be replayed exactly. The zero UOW boundary is
// the initial plan, so meaningful steps have BeforeUOW >= 1.
//
// A step with Copies <= 0 retires the entry — unless it is the filter's
// last, in which case it is clamped to one copy (a filter must run
// somewhere; mirrors StreamWriter.RemoveTarget refusing to empty a target
// set). A step naming a (Filter, Host) pair absent from the placement
// appends a new entry.
type ScaleStep struct {
	BeforeUOW int
	Filter    string
	Host      string
	Copies    int
}

// Apply returns placement with the steps applied in order. The input is not
// mutated; entry order is preserved, with brand-new entries appended in
// step order, so repeated application is deterministic.
func Apply(placement []Entry, steps []ScaleStep) []Entry {
	out := append([]Entry(nil), placement...)
	for _, s := range steps {
		idx := -1
		for i := range out {
			if out[i].Filter == s.Filter && out[i].Host == s.Host {
				idx = i
				break
			}
		}
		switch {
		case idx < 0:
			if s.Copies >= 1 {
				out = append(out, Entry{Filter: s.Filter, Host: s.Host, Copies: s.Copies})
			}
		case s.Copies >= 1:
			out[idx].Copies = s.Copies
		default:
			// Retire the entry, but never the filter's last one.
			last := true
			for i := range out {
				if i != idx && out[i].Filter == s.Filter {
					last = false
					break
				}
			}
			if last {
				out[idx].Copies = 1
			} else {
				out = append(out[:idx], out[idx+1:]...)
			}
		}
	}
	return out
}

// EffectivePlacement returns the placement in force for unit of work uow:
// base with every step whose boundary has passed (BeforeUOW <= uow)
// applied, in schedule order.
func EffectivePlacement(base []Entry, steps []ScaleStep, uow int) []Entry {
	var due []ScaleStep
	for _, s := range steps {
		if s.BeforeUOW <= uow {
			due = append(due, s)
		}
	}
	if len(due) == 0 {
		return append([]Entry(nil), base...)
	}
	return Apply(base, due)
}

// StepsAt returns the steps firing exactly at the given work-cycle
// boundary, in schedule order — what an engine applies between UOW uow-1
// and uow.
func StepsAt(steps []ScaleStep, uow int) []ScaleStep {
	var out []ScaleStep
	for _, s := range steps {
		if s.BeforeUOW == uow {
			out = append(out, s)
		}
	}
	return out
}

// ValidateSchedule rejects steps naming filters absent from the graph (a
// typo would otherwise silently grow a copy set nobody consumes), steps at
// the reserved zero boundary, and — when hostOK is non-nil — steps growing
// a copy set onto a host the engine cannot run (hostOK false).
func ValidateSchedule(filters []string, steps []ScaleStep, hostOK func(host string) bool) error {
	known := make(map[string]bool, len(filters))
	for _, f := range filters {
		known[f] = true
	}
	for _, s := range steps {
		if !known[s.Filter] {
			return fmt.Errorf("scale schedule names unknown filter %q", s.Filter)
		}
		if s.BeforeUOW < 1 {
			return fmt.Errorf("scale step for %q has BeforeUOW %d (the initial plan is the zero boundary; steps need >= 1)", s.Filter, s.BeforeUOW)
		}
		if s.Copies >= 1 && hostOK != nil && !hostOK(s.Host) {
			return fmt.Errorf("scale step for %q uses unknown host %q", s.Filter, s.Host)
		}
	}
	return nil
}
