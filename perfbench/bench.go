package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"datacutter/internal/obs"
)

// config holds one benchmark run's settings.
type config struct {
	Seed    int64
	Measure time.Duration // measured time; a traced run splits it in two
	Trace   bool
	Workdir string
	Out     io.Writer
	// MinOps is the fewest timed ops in an untraced run (minOps when 0).
	MinOps int
}

// setupReps is how often set-up runs; setup_s is the median.
const setupReps = 3

// instance is a set-up workload. An op is one unit a user waits for: one
// rendered view or one regenerated paper table. Ops come in kinds (a view
// per timestep, an experiment id); the run cycles through every kind in a
// seeded order so each kind is timed equally often.
type instance interface {
	kinds() int
	// prepare computes the reference output of every kind, independently of
	// the engine under test.
	prepare() error
	// op runs one op of kind k and checks its output against the
	// reference. It returns the op's latency, measured around the calls
	// into the system alone.
	op(k int) (time.Duration, error)
	// observe switches later ops to traced mode: the program's obs layer
	// and the benchmark's own spans record into p.
	observe(p *probe) error
	// profile returns the per-layer metrics of the ops run since observe.
	profile(ops int) map[string]metric
	close()
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	Name string
	// setup builds the system's inputs and state in dir from the seed.
	setup func(dir string, seed int64) (instance, error)
}

// run executes one benchmark run: set-up (timed, several times), the
// reference outputs, a warm-up cycle, then the measured loop.
func run(w workload, c config) (*result, error) {
	if c.Out == nil {
		c.Out = io.Discard
	}
	if err := os.MkdirAll(c.Workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.Workdir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	inst, setups, err := setUp(w, dir, c.Seed)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
	}
	defer inst.close()
	if err := inst.prepare(); err != nil {
		return nil, fmt.Errorf("%s reference outputs: %w", w.Name, err)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	tally := &tally{}
	if _, err := loop(inst, rng, 0, 0, tally, c.Out); err != nil {
		return nil, err
	}
	// Memory the set-up and the warm-up left behind is not the workload's.
	runtime.GC()
	debug.FreeOSMemory()

	res := &result{Metrics: map[string]metric{}}
	if !c.Trace {
		minN := c.MinOps
		if minN == 0 {
			minN = minOps
		}
		rss := startRSSSampler()
		lat, err := loop(inst, rng, c.Measure, minN, tally, c.Out)
		peak := rss.stop()
		if err != nil {
			return nil, err
		}
		total := 0.0
		for _, d := range lat {
			total += d
		}
		res.Metrics["ops_per_s"] = metric{float64(len(lat)) / total, "1/s"}
		res.Metrics["op_p50_ms"] = metric{1e3 * quantile(lat, 0.5), "ms"}
		res.Metrics["op_p90_ms"] = metric{1e3 * quantile(lat, 0.9), "ms"}
		res.Metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
		res.Metrics["peak_rss_mb"] = metric{peak / 1e6, "MB"}
		fmt.Fprintf(c.Out, "%s seed %d: %d timed ops in %.1f s of op time, set-up runs %.3f s\n",
			w.Name, c.Seed, len(lat), total, setups)
	} else {
		plain, err := loop(inst, rng, c.Measure/2, 0, tally, c.Out)
		if err != nil {
			return nil, err
		}
		p := newProbe()
		if err := inst.observe(p); err != nil {
			return nil, err
		}
		traced, err := loop(inst, rng, c.Measure/2, 0, tally, c.Out)
		if err != nil {
			return nil, err
		}
		res.Metrics = inst.profile(len(traced))
		base := quantile(plain, 0.5)
		res.Metrics["obs.trace_overhead_pct"] = metric{100 * (quantile(traced, 0.5) - base) / base, "%"}
		path := filepath.Join(c.Workdir, fmt.Sprintf("trace-%s-seed%d.json", w.Name, c.Seed))
		if err := p.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(c.Out, "%s seed %d: %d untraced and %d traced ops; spans in %s\n",
			w.Name, c.Seed, len(plain), len(traced), path)
		p.tr.printSelfTimes(c.Out, len(traced))
		printBottleneck(c.Out, res.Metrics)
	}
	want := endToEnd
	if c.Trace {
		want = perLayer
	}
	if err := checkMetrics(res.Metrics, want); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = tally.attempted, tally.failed
	res.Correct = tally.failed == 0
	fmt.Fprintf(c.Out, "error_rate %.4f (%d failed of %d attempted)\n",
		float64(tally.failed)/float64(tally.attempted), tally.failed, tally.attempted)
	printMetrics(c.Out, res.Metrics)
	return res, nil
}

// setUp runs the workload's set-up setupReps times, timing each, and keeps
// the last instance.
func setUp(w workload, dir string, seed int64) (instance, []float64, error) {
	var inst instance
	var times []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		next, err := w.setup(filepath.Join(dir, strconv.Itoa(i)), seed)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		inst = next
	}
	return inst, times, nil
}

// tally counts ops across every phase of a run.
type tally struct{ attempted, failed int }

// loop runs whole cycles of ops, one op in flight (a closed loop with one
// client), until at least d has passed and minN ops succeeded; with d == 0
// it runs exactly one cycle. A failed op is counted and
// reported, never retried, and its latency is not sampled. It returns the
// latencies of the successful ops in seconds.
func loop(inst instance, rng *rand.Rand, d time.Duration, minN int, t *tally, out io.Writer) ([]float64, error) {
	// The hard stop keeps a slow machine within the run's time limit; the
	// measured set still ends on a whole cycle.
	start := time.Now()
	hard := start.Add(d + max(d, 30*time.Second))
	var lat []float64
	for {
		for _, k := range rng.Perm(inst.kinds()) {
			t.attempted++
			dt, err := inst.op(k)
			if err != nil {
				t.failed++
				fmt.Fprintf(out, "op failed: %v\n", err)
				continue
			}
			lat = append(lat, dt.Seconds())
		}
		if (time.Since(start) >= d && len(lat) >= minN) || time.Now().After(hard) {
			break
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("every op failed (%d attempted)", t.attempted)
	}
	return lat, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// rssSampler records the process's peak resident set size over an interval
// by sampling /proc/self/statm, so memory the set-up used before the
// interval does not count.
type rssSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  atomic.Int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.sample()
			case <-s.stopc:
				return
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	if rss := pages * int64(os.Getpagesize()); rss > s.peak.Load() {
		s.peak.Store(rss)
	}
}

// stop ends sampling and returns the peak in bytes. Without /proc it falls
// back to the whole process's peak from getrusage.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	<-s.done
	s.sample()
	if p := s.peak.Load(); p > 0 {
		return float64(p)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024
}

// probe is what a traced run records into: the program's own obs layer
// (registry counters and writer-pick events) and the benchmark's spans.
type probe struct {
	o     *obs.Observer
	reg   *obs.Registry
	picks *pickSink
	tr    *tracer
}

func newProbe() *probe {
	p := &probe{reg: obs.NewRegistry(), picks: &pickSink{counts: map[pickKey]int64{}}, tr: newTracer()}
	p.o = obs.New(p.picks, p.reg)
	return p
}

// pickKey identifies one stream's writer picks by locality.
type pickKey struct {
	stream string
	remote bool
}

// pickSink is an obs.Sink counting writer picks per stream, split by
// whether the chosen copy set sits on the producer's host.
type pickSink struct {
	mu     sync.Mutex
	counts map[pickKey]int64
}

func (p *pickSink) Emit(e obs.Event) {
	if e.Kind != obs.KindPick {
		return
	}
	p.mu.Lock()
	p.counts[pickKey{e.Stream, e.Host != e.Target}]++
	p.mu.Unlock()
}

func (p *pickSink) Flush() error { return nil }

// remoteShare is the share of a stream's picks that crossed hosts.
func (p *pickSink) remoteShare(stream string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	remote := p.counts[pickKey{stream, true}]
	all := remote + p.counts[pickKey{stream, false}]
	if all == 0 {
		return 0
	}
	return float64(remote) / float64(all)
}
