package main

import (
	"bytes"
	"context"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"dpreverser/internal/align"
	"dpreverser/internal/colstore"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/telemetry"
)

// The layer pass repeats each capture's calls at least minLayerReps times
// and until its Reverse calls add up to layerBudget, and keeps each
// call's fastest time, since a slower repetition only adds time another
// process or the machine took.
const (
	minLayerReps = 3
	layerBudget  = 60 * time.Millisecond
)

// layerPass attributes one fleet pass to the pipeline's layers. It calls
// each layer's public function in turn on every capture, at the
// workload's GP budget and Parallelism 1, inside a "capture" root span
// with one child span per call, and sums each call's fastest repetition
// over the pass:
//
//	rig.decode         rig.ReadCapture on the uploaded body
//	reverser.assemble  FramesColumnar + AssembleColumnar
//	reverser.extract   ExtractFieldsColumnar
//	reverser.align     align.EstimateOffsetOBDColumnar + ApplyOffset
//	reverser.streams   ExtractStreams, less the three stages above it repeats
//	reverser.infer     InferStream on every stream
//	reverser.reverse   (*Reverser).Reverse on the whole capture
//	schema.encode      the result document, as the server writes it
//
// Each repetition starts on a freshly collected heap and runs with the
// collector paused, so no call pays for another's garbage and the
// stages' sum compares with the whole Reverse: reverser.attributed_ratio
// checks that the layers explain the whole run. The allocation metrics
// carry the collector's share.
func (e *env) layerPass() error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	rv := reverser.New(reverser.WithConfig(e.cfg), reverser.WithParallelism(1))
	total := map[string]time.Duration{}
	var (
		decodeAlloc, reverseAlloc, captureBytes, resultBytes uint64

		frames, messages, observations, streams, formulaStreams int
		evaluations, cacheHits, formulas, correct               int
	)
	for _, c := range e.cars {
		best := map[string]time.Duration{}
		var reversed time.Duration
		for rep := 0; rep < minLayerReps || reversed < layerBudget; rep++ {
			root := e.tr.Start("capture", telemetry.String("car", c.Name))
			runtime.GC()
			timed := func(name string, fn func()) {
				sp := root.Child(name)
				t := e.clock.Now()
				fn()
				d := e.clock.Now() - t
				sp.End()
				if b, ok := best[name]; !ok || d < b {
					best[name] = d
				}
			}
			first := rep == 0

			var capture rig.Capture
			var err error
			a := allocBytes()
			timed("rig.decode", func() { capture, err = rig.ReadCapture(bytes.NewReader(c.Body)) })
			decodeBytes := allocBytes() - a
			if err != nil {
				return err
			}
			var fr *colstore.Frames
			var msgs *colstore.Messages
			timed("reverser.assemble", func() {
				fr = reverser.FramesColumnar(capture.Frames)
				msgs, _, err = reverser.AssembleColumnar(ctx, fr, nil)
			})
			if err != nil {
				return err
			}
			var ext *reverser.Extraction
			timed("reverser.extract", func() { ext = reverser.ExtractFieldsColumnar(msgs) })
			timed("reverser.align", func() {
				if off, aerr := align.EstimateOffsetOBDColumnar(fr, capture.UIFrames); aerr == nil {
					align.ApplyOffset(capture.UIFrames, off)
				}
			})
			var sds []reverser.StreamData
			timed("reverser.streams", func() { sds, _, _ = reverser.ExtractStreams(capture, e.cfg) })
			var esvs []reverser.ReversedESV
			timed("reverser.infer", func() {
				for _, sd := range sds {
					cfg := e.cfg
					cfg.GP.Seed = streamSeed(e.cfg.GP.Seed, sd.Key)
					esv, ierr := reverser.InferStream(ctx, sd, cfg)
					if ierr != nil {
						err = ierr
						return
					}
					esvs = append(esvs, esv)
				}
			})
			if err != nil {
				return err
			}
			var res *reverser.Result
			a = allocBytes()
			t := e.clock.Now()
			timed("reverser.reverse", func() { res, err = rv.Reverse(ctx, capture) })
			reversed += e.clock.Now() - t
			reverseBytes := allocBytes() - a
			if err != nil {
				return err
			}
			var doc []byte
			timed("schema.encode", func() { doc, err = encodeResult(res) })
			if err != nil {
				return err
			}
			root.End()

			if !first {
				continue
			}
			decodeAlloc += decodeBytes
			reverseAlloc += reverseBytes
			captureBytes += uint64(len(c.Body))
			resultBytes += uint64(len(doc))
			frames += fr.Len()
			messages += msgs.Len()
			observations += len(ext.ESVs)
			streams += len(sds)
			for i, sd := range sds {
				if sd.Dataset != nil && !sd.Enum {
					formulaStreams++
				}
				evaluations += esvs[i].Evaluations
				cacheHits += esvs[i].CacheHits
			}
			f, ok := c.score(esvs, sds)
			formulas += f
			correct += ok
		}
		for name, d := range best {
			total[name] += d
		}
	}

	r := e.rep
	assemble, extract, aligned := total["reverser.assemble"], total["reverser.extract"], total["reverser.align"]
	streamsOnly := total["reverser.streams"] - assemble - extract - aligned
	infer, reverse := total["reverser.infer"], total["reverser.reverse"]
	r.set("rig.decode_ms", "ms", millis(total["rig.decode"]))
	r.set("rig.decode_alloc_kb", "KB", float64(decodeAlloc)/1024)
	r.set("rig.capture_kb", "KB", float64(captureBytes)/1024)
	r.set("reverser.assemble_ms", "ms", millis(assemble))
	r.set("reverser.extract_ms", "ms", millis(extract))
	r.set("reverser.align_ms", "ms", millis(aligned))
	r.set("reverser.streams_ms", "ms", millis(streamsOnly))
	r.set("reverser.infer_ms", "ms", millis(infer))
	r.set("reverser.reverse_ms", "ms", millis(reverse))
	r.set("reverser.attributed_ratio", "ratio", float64(assemble+extract+aligned+streamsOnly+infer)/float64(reverse))
	r.set("reverser.alloc_mb_per_capture", "MB", float64(reverseAlloc)/(1<<20)/float64(len(e.cars)))
	r.set("reverser.frames", "count", float64(frames))
	r.set("reverser.messages", "count", float64(messages))
	r.set("reverser.esv_observations", "count", float64(observations))
	r.set("reverser.streams", "count", float64(streams))
	r.set("reverser.formula_streams", "count", float64(formulaStreams))
	r.set("gp.evaluations", "count", float64(evaluations))
	r.set("gp.cache_hit_ratio", "ratio", float64(cacheHits)/float64(max(evaluations, 1)))
	r.set("gp.useful_ratio", "ratio", float64(correct)/float64(max(formulas, 1)))
	r.set("schema.encode_ms", "ms", millis(total["schema.encode"]))
	r.set("schema.result_kb", "KB", float64(resultBytes)/1024)
	return nil
}

// streamSeed mirrors the pipeline's per-stream GP seed (the capture seed
// XOR a hash of the stream key), so the layer pass infers each stream on
// the trajectory Reverse follows.
func streamSeed(base int64, key reverser.StreamKey) int64 {
	h := fnv.New64a()
	io.WriteString(h, key.String())
	return base ^ int64(h.Sum64()&0x7FFFFFFFFFFFFFFF)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover, in ms.
func selfTimes(spans []telemetry.SpanData) map[string]float64 {
	children := map[int64][]telemetry.SpanData{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += millis(s.End - s.Start - covered(children[s.ID], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of the spans' intervals within
// [lo, hi].
func covered(spans []telemetry.SpanData, lo, hi time.Duration) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total time.Duration
	cur := lo
	for _, s := range spans {
		start, end := max(s.Start, cur), min(s.End, hi)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// spanCost is the time one child span's Start/End pair takes, measured on
// a scratch tracer; multiplied by a run's span count it gives the
// tracing overhead.
func spanCost(clock telemetry.Clock) time.Duration {
	const n = 20000
	root := telemetry.NewTracer(clock).Start("calibrate")
	t := clock.Now()
	for i := 0; i < n; i++ {
		root.Child("span").End()
	}
	return (clock.Now() - t) / n
}
