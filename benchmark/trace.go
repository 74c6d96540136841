package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval recorded from the benchmark's side of a layer
// boundary: what ran, when (ns since the traced pass began), which span
// caused it (index into the file's span list, -1 for a root) and which
// operation it belongs to. Spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// recorder keeps one client's spans in memory until the run ends. Each
// client goroutine owns one, so recording takes no lock.
type recorder struct {
	epoch time.Time
	spans []span
}

// begin opens a span and returns its index; end closes it.
func (r *recorder) begin(name string, parent int32, op int64) int32 {
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Op: op})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) { r.spans[i].End = int64(time.Since(r.epoch)) }

// stage times fn as a child span of parent.
func (r *recorder) stage(name string, parent int32, op int64, fn func()) {
	i := r.begin(name, parent, op)
	fn()
	r.end(i)
}

// mergeSpans concatenates the clients' spans, re-basing parent indexes.
func mergeSpans(recs []*recorder) []span {
	var all []span
	for _, r := range recs {
		base := int32(len(all))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// stageStats summarises the spans of one name: how many there were and the
// median self time, a span's duration minus the part its children cover.
type stageStats struct {
	Count  int     `json:"count"`
	SelfUs float64 `json:"self_p50_us"`
}

func selfTimes(spans []span) map[string]stageStats {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string][]float64{}
	for i, s := range spans {
		self := s.End - s.Start - child[i]
		byName[s.Name] = append(byName[s.Name], float64(self)/1e3)
	}
	out := make(map[string]stageStats, len(byName))
	for name, v := range byName {
		sort.Float64s(v)
		out[name] = stageStats{Count: len(v), SelfUs: quantile(v, 0.5)}
	}
	return out
}

// writeTrace writes the spans and their per-name summary to
// out/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, spans []span, stats map[string]stageStats) error {
	data, err := json.Marshal(struct {
		Workload string                `json:"workload"`
		Seed     int64                 `json:"seed"`
		Stages   map[string]stageStats `json:"stages"`
		Spans    []span                `json:"spans"`
	}{workload, seed, stats, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
