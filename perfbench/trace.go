package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call: a public call the benchmark makes into a layer
// (named <layer>.<call>), the handler middleware, or the operation that
// encloses them. Spans of one operation share its op ID; parent is the
// index of the enclosing span, -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Class  string `json:"class"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends. A
// nil *tracer records nothing, which is how untraced runs call the same
// code. The handler middleware records from server goroutines, so
// recording is mutex-guarded. Spans live in fixed-size chunks so that
// recording never copies earlier spans, and a span's clock is read after
// its bookkeeping, keeping the tracer's own cost out of the span.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	chunks [][]span
	n      int
}

const spanChunk = 4096

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(id int32) *span { return &t.chunks[int(id)/spanChunk][int(id)%spanChunk] }

// reserve allocates room for at least n more spans. Rounds call it before
// their first operation, so no span's bookkeeping allocates inside another
// span.
func (t *tracer) reserve(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.chunks)*spanChunk < t.n+n {
		t.chunks = append(t.chunks, make([]span, spanChunk))
	}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, class string, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == len(t.chunks)*spanChunk {
		t.chunks = append(t.chunks, make([]span, spanChunk))
	}
	id := int32(t.n)
	t.n++
	*t.at(id) = span{Name: name, Class: class, Op: op, Parent: parent}
	t.at(id).Start = time.Since(t.t0).Nanoseconds()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.at(id).End = now
	t.mu.Unlock()
}

// opSpans opens the child spans of one operation; its zero value (no
// tracer) records nothing.
type opSpans struct {
	tr     *tracer
	class  string
	op     int64
	parent int32
}

func (o opSpans) begin(name string) int32 { return o.tr.begin(name, o.class, o.op, o.parent) }
func (o opSpans) end(id int32)            { o.tr.end(id) }

// all returns the recorded spans in order.
func (t *tracer) all() []span {
	out := make([]span, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, *t.at(int32(i)))
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes summarizes closed spans: per span name, per class, the
// durations in microseconds; per span tree (an operation, or a serve
// replay) the root spans' total time and each layer's self time (span
// minus its children) and call count; the part of operation time their
// layer spans cover; and per operation, that covered share.
type layerTimes struct {
	byName   map[string]map[string][]float64
	treeTime map[string]time.Duration
	self     map[[2]string]time.Duration
	calls    map[[2]string]int
	covered  time.Duration
	coverage []float64
}

func (t *tracer) summarize() *layerTimes {
	lt := &layerTimes{byName: map[string]map[string][]float64{}, treeTime: map[string]time.Duration{},
		self: map[[2]string]time.Duration{}, calls: map[[2]string]int{}}
	if t == nil {
		return lt
	}
	spans := t.all()
	child := make([]time.Duration, len(spans))
	tree := make([]string, len(spans))
	for i, s := range spans {
		// A parent is always recorded before its children.
		tree[i] = s.Name
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
			tree[i] = tree[s.Parent]
		}
	}
	for i, s := range spans {
		us := float64(s.dur()) / float64(time.Microsecond)
		if lt.byName[s.Name] == nil {
			lt.byName[s.Name] = map[string][]float64{}
		}
		lt.byName[s.Name][s.Class] = append(lt.byName[s.Name][s.Class], us)
		if s.Parent < 0 {
			lt.treeTime[s.Name] += s.dur()
		} else {
			key := [2]string{tree[i], s.Name}
			lt.self[key] += s.dur() - child[i]
			lt.calls[key]++
		}
		if s.Name == "op" && s.dur() > 0 {
			lt.covered += child[i]
			lt.coverage = append(lt.coverage, float64(child[i])/float64(s.dur()))
		}
	}
	return lt
}

// classGeomean is the geometric mean over classes of the per-class median
// duration of the named span, in microseconds (0 when never called), and a
// description of its samples.
func (lt *layerTimes) classGeomean(name string) (float64, string) {
	meds, minN := classMedians(lt.byName[name])
	return geomean(meds), fmt.Sprintf("geomean of %d per-class medians, >=%d samples each", len(meds), minN)
}

// selfLines renders each layer's self time and its share of its tree's
// time (operation time, or replay time for the in-process serve replays).
func (lt *layerTimes) selfLines() []string {
	keys := make([][2]string, 0, len(lt.self))
	for k := range lt.self {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return lt.self[keys[i]] > lt.self[keys[j]]
	})
	var out []string
	for _, k := range keys {
		out = append(out, fmt.Sprintf("self %-26s %10.1f ms  %5.1f%% of %s time (%d calls)",
			k[1], float64(lt.self[k])/1e6, 100*share(float64(lt.self[k]), float64(lt.treeTime[k[0]])), k[0], lt.calls[k]))
	}
	return out
}

// runtimeSample reads the allocation and CPU counters the per-layer
// runtime metrics are computed from.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(ss[0]), val(ss[1]), val(ss[2])}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a *runtimeSample) add(b runtimeSample) {
	a.allocBytes += b.allocBytes
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
