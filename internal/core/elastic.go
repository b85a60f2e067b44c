package core

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"time"

	"datacutter/internal/elastic"
	"datacutter/internal/exec"
)

// Elasticity on the real engine. Copy-set membership changes happen at
// work-cycle boundaries, where the shared runtime rescales the copy sets in
// place (exec.Runtime.Run): transparent copies rebuild per-UOW state in
// Init, so spawning and retiring instances between units of work needs no
// state hand-off. Mid-cycle, the autoscale controller (elasticLoop) only
// mutates what is safe while buffers are in flight: WRR weights and DD
// windows through the StreamWriter mutation API, plus opportunistic work
// stealing between co-hosted copy sets (stealQueue).

// queuePending records controller decisions for the next work-cycle
// boundary. Multiple decisions for one (filter, host) keep the latest.
func (r *Runner) queuePending(decisions []elastic.Decision) {
	r.pendMu.Lock()
	defer r.pendMu.Unlock()
	r.pending = append(r.pending, decisions...)
}

// drainPending is the runtime's Propose hook: the queued controller steps
// stamped for boundary uow, plus the reason to record per copy set.
func (r *Runner) drainPending(uow int) ([]elastic.ScaleStep, func(filter, host string) string) {
	r.pendMu.Lock()
	defer r.pendMu.Unlock()
	if len(r.pending) == 0 {
		return nil, nil
	}
	steps := make([]elastic.ScaleStep, len(r.pending))
	reasons := make(map[scaleKey]string, len(r.pending))
	for i, d := range r.pending {
		steps[i] = elastic.ScaleStep{BeforeUOW: uow, Filter: d.Filter, Host: d.Host, Copies: d.Copies}
		reasons[scaleKey{d.Filter, d.Host}] = d.Reason
	}
	r.pending = nil
	return steps, func(filter, host string) string { return reasons[scaleKey{filter, host}] }
}

type scaleKey struct{ filter, host string }

// startController is the runtime's DuringProcess hook: it runs the
// autoscale controller alongside one Process phase.
func (r *Runner) startController(u *exec.UOW) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.elasticLoop(u, done)
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// elasticLoop is the per-UOW autoscale controller: every Interval it (a)
// reweights WRR streams from observed per-target throughput, and (b) turns
// queue-depth / DD-window / p95-service signals into copy-count decisions
// queued for the next work-cycle boundary. It owns no engine state — all
// mutation goes through the StreamWriter API or the pending queue.
func (r *Runner) elasticLoop(u *exec.UOW, stop chan struct{}) {
	cfg := r.opts.Elastic.WithDefaults()
	qcap, uow := r.rt.QueueCap, u.Index
	total := 0
	for _, name := range r.rt.Filters {
		total += len(r.rt.Copies(name))
	}
	ticker := time.NewTicker(cfg.Interval)
	defer ticker.Stop()

	// Streams in name order for deterministic sampling.
	streams := append([]*exec.Stream(nil), u.Streams()...)
	sort.Slice(streams, func(i, j int) bool { return streams[i].Spec.Name < streams[j].Spec.Name })

	prevCounts := make(map[string][]int64)
	prevWeights := make(map[string]map[string]int)
	lowStreak := make(map[scaleKey]int)
	pendCopies := make(map[scaleKey]int)
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}

		bySet := make(map[scaleKey]*elastic.Signals)
		var order []scaleKey
		for _, st := range streams {
			name := st.Spec.Name

			// (a) WRR reweight from observed throughput since last tick.
			if r.rt.Policies.For(name).Name() == "WRR" && len(st.Hosts) > 1 {
				cur := make([]int64, len(st.Hosts))
				tp := make(map[string]float64, len(st.Hosts))
				prev := prevCounts[name]
				for i, h := range st.Hosts {
					cur[i] = st.Counts.Get(i)
					d := cur[i]
					if i < len(prev) {
						d -= prev[i]
					}
					tp[h] += float64(d)
				}
				prevCounts[name] = cur
				weights := elastic.ReweightByThroughput(tp, cfg.MaxCopies)
				if !maps.Equal(weights, prevWeights[name]) && anyPositive(tp) {
					for _, sw := range st.Writers {
						for h, w := range weights {
							sw.Reweight(h, w)
						}
					}
					prevWeights[name] = weights
					elastic.RecordRebalance(r.opts.Obs, name, "", uow, weightNote(weights))
				}
			}

			// (b) Load signals per consumer copy set. A consumer filter can
			// have several input streams; merge to the worst occupancy.
			windows := windowFractions(st, qcap)
			p95 := 0.0
			if reg := r.opts.Obs.Registry(); reg != nil {
				p95 = reg.Histogram("core.filter." + st.Spec.To + ".service_seconds").Quantile(0.95)
			}
			for i, h := range st.Hosts {
				key := scaleKey{st.Spec.To, h}
				sig := bySet[key]
				if sig == nil {
					sig = &elastic.Signals{Filter: st.Spec.To, Host: h, Copies: st.Copies[i], QueueCap: qcap}
					bySet[key] = sig
					order = append(order, key)
				}
				if q := st.Queues[i].Len(); q > sig.QueueLen {
					sig.QueueLen = q
				}
				if windows[i] > sig.WindowFrac {
					sig.WindowFrac = windows[i]
				}
				if p95 > sig.P95Service {
					sig.P95Service = p95
				}
			}
		}
		// Scale-down hysteresis input: consecutive low-occupancy ticks per
		// set (see elastic.Config.DownAfter).
		for _, key := range order {
			if bySet[key].Occupancy() <= cfg.LowWater {
				lowStreak[key]++
			} else {
				lowStreak[key] = 0
			}
			bySet[key].LowStreak = lowStreak[key]
		}
		// One decision per copy set per work cycle: a set with a pending
		// change is excluded from further sampling until the boundary applies
		// it. Its observed copy count cannot change mid-cycle, so re-deciding
		// would double-count the same step against the budget — the bug class
		// where the controller overshoots its bound by one per extra tick.
		sets := make([]elastic.Signals, 0, len(order))
		for _, key := range order {
			if _, ok := pendCopies[key]; !ok {
				sets = append(sets, *bySet[key])
			}
		}
		decisions := elastic.Decide(cfg, sets, total)
		for _, d := range decisions {
			key := scaleKey{d.Filter, d.Host}
			total += d.Copies - bySet[key].Copies
			pendCopies[key] = d.Copies
		}
		r.queuePending(decisions)
	}
}

// windowFractions samples DD ack-window occupancy per target across the
// stream's producer writers: the max unacked fraction of the effective
// window (queue capacity plus copy count — the in-flight bound per target).
func windowFractions(st *exec.Stream, qcap int) []float64 {
	out := make([]float64, len(st.Hosts))
	for _, sw := range st.Writers {
		if !sw.WantsAcks() {
			return out
		}
		una := sw.Unacked()
		for i := range st.Hosts {
			if i >= len(una) {
				break
			}
			bound := qcap + st.Copies[i]
			if bound <= 0 {
				continue
			}
			if f := float64(una[i]) / float64(bound); f > out[i] {
				out[i] = f
			}
		}
	}
	return out
}

func anyPositive(tp map[string]float64) bool {
	for _, v := range tp {
		if v > 0 {
			return true
		}
	}
	return false
}

func weightNote(w map[string]int) string {
	hosts := make([]string, 0, len(w))
	for h := range w {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	parts := make([]string, len(hosts))
	for i, h := range hosts {
		parts[i] = fmt.Sprintf("%s=%d", h, w[h])
	}
	return strings.Join(parts, " ")
}

// stealQueue is a copy set's queue with work stealing (Options.StealWork):
// a copy drains its own queue first, then opportunistically steals from
// sibling copy sets' queues on the same stream. Deliveries carry their
// producer-side ack path and target index, so a stolen buffer acknowledges
// the correct window. All of a stream's queues close together at
// end-of-work, and closed channels still hand out their buffered remainder,
// so the final drain loop strands nothing.
type stealQueue struct {
	exec.ChanQueue
	st *exec.Stream
}

// Recv implements exec.Queue.
func (q stealQueue) Recv(c *exec.CopyCtx, stream string) (exec.Delivery, bool, error) {
	if len(q.st.Queues) < 2 {
		return q.ChanQueue.Recv(c, stream)
	}
	own := q.ChanQueue
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		// Own queue first: demand-based balance within the copy set.
		select {
		case d, ok := <-own:
			if ok {
				return d, true, nil
			}
			// Own queue closed: drain every sibling to exhaustion. A
			// sibling that is open-but-empty is mid-close (the close loop
			// walks all queues); yield and rescan.
			for {
				d, ok, drained := q.steal()
				if ok {
					return d, true, nil
				}
				if drained {
					return exec.Delivery{}, false, nil
				}
				select {
				case <-c.Done():
					return exec.Delivery{}, false, nil
				default:
					time.Sleep(50 * time.Microsecond)
				}
			}
		case <-c.Done():
			return exec.Delivery{}, false, exec.ErrCancelled
		default:
		}
		// Own queue empty: steal one buffer from a sibling, if any.
		if d, ok, _ := q.steal(); ok {
			return d, true, nil
		}
		// Nothing anywhere: wait briefly on the own queue, then rescan the
		// siblings — stealing is opportunistic, not a barrier.
		if timer == nil {
			timer = time.NewTimer(200 * time.Microsecond)
		} else {
			timer.Reset(200 * time.Microsecond)
		}
		select {
		case d, ok := <-own:
			if !timer.Stop() {
				<-timer.C
			}
			if ok {
				return d, true, nil
			}
			// Closed: fall through via the next loop iteration's own-case.
			continue
		case <-c.Done():
			if !timer.Stop() {
				<-timer.C
			}
			return exec.Delivery{}, false, exec.ErrCancelled
		case <-timer.C:
		}
	}
}

// steal takes one buffer from a sibling copy set's queue. When none is
// ready it reports whether every sibling is closed and drained.
func (q stealQueue) steal() (d exec.Delivery, ok, drained bool) {
	drained = true
	for _, sq := range q.st.Queues {
		sib := sq.(stealQueue).ChanQueue
		if sib == q.ChanQueue {
			continue
		}
		select {
		case d, ok := <-sib:
			if ok {
				return d, true, false
			}
		default:
			drained = false
		}
	}
	return exec.Delivery{}, false, drained
}
