package elastic

import (
	"datacutter/internal/obs"
)

// Metric names published by the elasticity machinery. The copyset-size
// gauge is namespaced per copy set (GaugeCopysetSize + ".<filter>.<host>"),
// matching the per-stream naming the engines already use.
const (
	MetricCopiesAdded   = "elastic.copies_added"
	MetricCopiesRemoved = "elastic.copies_removed"
	MetricRebalances    = "elastic.rebalances"
	GaugeCopysetSize    = "elastic.copyset_size"
)

// RecordScale publishes one applied copy-count change: the copies_added /
// copies_removed counters, the per-set copyset_size gauge, and a scale-up /
// scale-down trace event (Filter and Host name the set, Copy carries the
// new count, Note the controller's reason). Safe on a nil observer.
func RecordScale(o *obs.Observer, filter, host string, oldCopies, newCopies, uow int, reason string) {
	if o == nil || oldCopies == newCopies {
		return
	}
	if reg := o.Registry(); reg != nil {
		if newCopies > oldCopies {
			reg.Counter(MetricCopiesAdded).Add(int64(newCopies - oldCopies))
		} else {
			reg.Counter(MetricCopiesRemoved).Add(int64(oldCopies - newCopies))
		}
		reg.Gauge(GaugeCopysetSize + "." + filter + "." + host).Set(int64(newCopies))
	}
	kind := obs.KindScaleUp
	if newCopies < oldCopies {
		kind = obs.KindScaleDown
	}
	o.Emit(obs.Event{
		Kind: kind, Filter: filter, Host: host, Copy: newCopies, UOW: uow,
		Note: reason,
	})
}

// RecordRebalance publishes one WRR weight rebalance on a stream: the
// rebalances counter and a rebalance trace event (Stream names the stream,
// Host the producer side, Note the new weights). Safe on a nil observer.
func RecordRebalance(o *obs.Observer, stream, host string, uow int, note string) {
	if o == nil {
		return
	}
	if reg := o.Registry(); reg != nil {
		reg.Counter(MetricRebalances).Inc()
	}
	o.Emit(obs.Event{
		Kind: obs.KindRebalance, Stream: stream, Host: host, UOW: uow, Note: note,
	})
}

// RecordScaleDiff publishes one RecordScale per (filter, host) copy set
// whose copy count differs between two placements: changed and new sets in
// next's order, then retired sets in old's order. reason names the cause of
// a change (nil, or an empty answer, records "scale schedule").
func RecordScaleDiff(o *obs.Observer, old, next []Entry, uow int, reason func(filter, host string) string) {
	if o == nil {
		return
	}
	type key struct{ filter, host string }
	tally := func(es []Entry) (map[key]int, []key) {
		n := make(map[key]int, len(es))
		var order []key
		for _, e := range es {
			k := key{e.Filter, e.Host}
			if _, seen := n[k]; !seen {
				order = append(order, k)
			}
			n[k] += e.Copies
		}
		return n, order
	}
	why := func(k key) string {
		if reason != nil {
			if s := reason(k.filter, k.host); s != "" {
				return s
			}
		}
		return "scale schedule"
	}
	before, oldKeys := tally(old)
	after, newKeys := tally(next)
	for _, k := range newKeys {
		RecordScale(o, k.filter, k.host, before[k], after[k], uow, why(k))
	}
	for _, k := range oldKeys {
		if _, kept := after[k]; !kept {
			RecordScale(o, k.filter, k.host, before[k], 0, uow, why(k))
		}
	}
}
