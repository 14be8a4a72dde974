package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the module. Op groups the spans of one operation (a
// kernel run, an edit, a verify pass, a serve window); Parent is the index
// of the enclosing span, or -1 for an operation's root.
type span struct {
	Name             string
	Kind             string // operation kind of the root span this span belongs to
	Op               int
	Parent           int
	Start, End       time.Duration // wall clock, since the tracer's epoch
	CPUStart, CPUEnd time.Duration // process CPU clock
}

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced measurement runs the same code with no span bookkeeping.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// op opens the root span of a new operation of the given kind.
func (t *tracer) op(kind string) int {
	if t == nil {
		return -1
	}
	t.ops++
	return t.push(kind, kind, t.ops)
}

// begin opens a layer span inside the current operation.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	top := t.spans[t.stack[len(t.stack)-1]]
	return t.push(name, top.Kind, top.Op)
}

func (t *tracer) push(name, kind string, op int) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Kind: kind, Op: op, Parent: parent,
		Start: time.Since(t.epoch), CPUStart: cpuTime()})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].CPUEnd = cpuTime()
	t.spans[id].End = time.Since(t.epoch)
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each span's wall and CPU duration minus the part its
// direct children cover.
func (t *tracer) selfTimes() (wall, cpu []time.Duration) {
	wall = make([]time.Duration, len(t.spans))
	cpu = make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		wall[i] += s.End - s.Start
		cpu[i] += s.CPUEnd - s.CPUStart
		if s.Parent >= 0 {
			wall[s.Parent] -= s.End - s.Start
			cpu[s.Parent] -= s.CPUEnd - s.CPUStart
		}
	}
	return wall, cpu
}

// layerRow is one row of the per-layer self-time table: the self time a
// layer spent inside operations of one kind, in ms.
type layerRow struct {
	Kind      string
	Layer     string
	Calls     int
	WallPerOp float64
	CPUPerOp  float64
}

// layerTable sums self time per (operation kind, span name) and divides it
// by the number of operations of that kind. Root spans appear under the
// layer "bench": time inside an operation outside every layer call, which
// is the tracing itself and the benchmark's own bookkeeping.
func (t *tracer) layerTable() []layerRow {
	wall, cpu := t.selfTimes()
	opsOf := map[string]map[int]bool{}
	rows := map[[2]string]*layerRow{}
	for i, s := range t.spans {
		if opsOf[s.Kind] == nil {
			opsOf[s.Kind] = map[int]bool{}
		}
		opsOf[s.Kind][s.Op] = true
		layer := s.Name
		if s.Parent < 0 {
			layer = "bench"
		}
		k := [2]string{s.Kind, layer}
		r := rows[k]
		if r == nil {
			r = &layerRow{Kind: s.Kind, Layer: layer}
			rows[k] = r
		}
		r.Calls++
		r.WallPerOp += ms(wall[i])
		r.CPUPerOp += ms(cpu[i])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		n := float64(len(opsOf[r.Kind]))
		r.WallPerOp /= n
		r.CPUPerOp /= n
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// perOp returns the CPU self time per operation of kind that spans named
// layer account for, or 0 when the layer ran in no such operation.
func perOp(rows []layerRow, kind, layer string) float64 {
	for _, r := range rows {
		if r.Kind == kind && r.Layer == layer {
			return r.CPUPerOp
		}
	}
	return 0
}

// opMs returns the mean wall and CPU duration of the root spans of kind.
func (t *tracer) opMs(kind string) (wall, cpu float64) {
	n := 0
	for _, s := range t.spans {
		if s.Parent < 0 && s.Kind == kind {
			wall += ms(s.End - s.Start)
			cpu += ms(s.CPUEnd - s.CPUStart)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return wall / float64(n), cpu / float64(n)
}

// writeChrome writes the spans as a Chrome trace_event file (load it in
// chrome://tracing or Perfetto); every span keeps its id, op, parent and
// CPU time.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Cat: s.Kind, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op,
				"cpu_us": float64((s.CPUEnd - s.CPUStart).Nanoseconds()) / 1e3},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// printLayerTable renders the self-time table.
func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "  %-14s %-22s %6s %14s %14s\n", "operation", "layer", "calls", "cpu ms/op", "wall ms/op")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %-22s %6d %14.4f %14.4f\n", r.Kind, r.Layer, r.Calls, r.CPUPerOp, r.WallPerOp)
	}
}
