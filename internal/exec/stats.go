package exec

import "sort"

// StreamStats aggregates traffic on one logical stream across a run.
type StreamStats struct {
	Buffers int64 // buffers transferred
	Bytes   int64 // payload bytes transferred
	Acks    int64 // acknowledgment messages sent (DD only)
	// PerTargetHost counts buffers delivered to each consumer copy set,
	// keyed by host name (the paper's Table 3 measurement).
	PerTargetHost map[string]int64
}

// FilterStats aggregates execution of one filter's copies across a run.
type FilterStats struct {
	Copies int
	// BusySeconds is per-copy time spent inside Process excluding time
	// blocked reading from or writing to streams (compute time).
	BusySeconds []float64
	// WallSeconds is per-copy total time inside Process.
	WallSeconds []float64
	// ReadBlockedSeconds / WriteBlockedSeconds are per-copy stream stall
	// times.
	ReadBlockedSeconds  []float64
	WriteBlockedSeconds []float64
	BuffersIn           int64
	BuffersOut          int64
}

// MinAvgMax summarizes a per-copy series.
func MinAvgMax(xs []float64) (min, avg, max float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	min, max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
		sum += x
	}
	return min, sum / float64(len(xs)), max
}

// Stats is the result of a run.
type Stats struct {
	Streams map[string]*StreamStats
	Filters map[string]*FilterStats
	// WallSeconds is total run time; PerUOWSeconds is per unit of work.
	// On the real engines these are wall-clock; on the simulated engine
	// they are virtual time.
	WallSeconds   float64
	PerUOWSeconds []float64
}

// StreamNames returns the stream names present in the stats, sorted.
func (s *Stats) StreamNames() []string {
	names := make([]string, 0, len(s.Streams))
	for n := range s.Streams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewStats allocates an empty Stats for a graph's filters and streams.
func NewStats(filters []string, streams []StreamSpec) *Stats {
	st := &Stats{Streams: make(map[string]*StreamStats), Filters: make(map[string]*FilterStats)}
	for _, sp := range streams {
		st.Streams[sp.Name] = &StreamStats{PerTargetHost: make(map[string]int64)}
	}
	for _, f := range filters {
		st.Filters[f] = &FilterStats{}
	}
	return st
}

// grow widens a filter's per-copy series to total copies. Series never
// shrink, so copies retired by a rescale keep their accumulated time.
func (fs *FilterStats) grow(total int) {
	fs.Copies = total
	for len(fs.BusySeconds) < total {
		fs.BusySeconds = append(fs.BusySeconds, 0)
		fs.WallSeconds = append(fs.WallSeconds, 0)
		fs.ReadBlockedSeconds = append(fs.ReadBlockedSeconds, 0)
		fs.WriteBlockedSeconds = append(fs.WriteBlockedSeconds, 0)
	}
}
