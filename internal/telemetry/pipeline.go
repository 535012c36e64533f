package telemetry

// PipelineMetrics is the named metric set the DP-Reverser pipeline
// increments. Names and label schemas live here — one home for the table
// DESIGN.md documents — so the reverser, the GP engine adapter and the
// CLIs cannot drift apart. Every field is nil when built against a nil
// registry, and every metric method is nil-safe, so an uninstrumented
// pipeline pays only dead branches.
type PipelineMetrics struct {
	// RunsTotal counts completed (*Reverser).Reverse calls.
	RunsTotal *Counter
	// FramesTotal counts raw CAN frames fed to payload assembly.
	FramesTotal *Counter
	// MessagesAssembled counts application messages reassembled across all
	// transports.
	MessagesAssembled *Counter
	// TransportErrors counts reassembly failures by transport (isotp,
	// vwtp, or bmwtp for ISO-TP under BMW extended addressing) and reason
	// (the transport packages' Reason classification: bad-sequence,
	// unexpected-frame, ...).
	TransportErrors *CounterVec
	// ESVObservations and ECRObservations count extracted field
	// observations (read-data responses paired to requests, IO-control
	// exchanges).
	ESVObservations *Counter
	ECRObservations *Counter
	// StreamsExtracted counts prepared inference streams by kind
	// (formula-candidate|enum|under-sampled).
	StreamsExtracted *CounterVec
	// ESVsReversed counts pipeline outputs by result kind
	// (formula|enum|under-sampled).
	ESVsReversed *CounterVec
	// ECRsRecovered counts recovered actuator-control records.
	ECRsRecovered *Counter
	// GPEvaluations/GPCacheHits/GPCacheMisses mirror the GP engine's
	// fitness-scoring counters (Evaluations = CacheHits + CacheMisses);
	// they reconcile exactly with Result.Evaluations/CacheHits.
	GPEvaluations *Counter
	GPCacheHits   *Counter
	GPCacheMisses *Counter
	// GPGenerations counts GP generations run across all streams.
	GPGenerations *Counter
	// StageDuration observes per-stage wall time
	// (assemble|extract|align|streams|infer|controls), in seconds, read
	// from the injected Clock.
	StageDuration *HistogramVec
	// StreamDuration observes per-stream inference wall time in seconds.
	StreamDuration *Histogram
	// DegradedStreams counts streams reported on Result.Degraded, by the
	// pipeline stage that damaged them (assemble|pairing|infer|attack).
	DegradedStreams *CounterVec
	// AttackSignatures counts classified transport-layer attack findings
	// by attack class (flow-control-starvation|first-frame-flood|
	// interleaved-transfer|session-starvation|slow-drip).
	AttackSignatures *CounterVec
}

// Pipeline metric names, exported so tests and the CI smoke check assert
// against one source of truth.
const (
	MetricRuns              = "dpreverser_runs_total"
	MetricFrames            = "dpreverser_can_frames_total"
	MetricMessagesAssembled = "dpreverser_messages_assembled_total"
	MetricTransportErrors   = "dpreverser_transport_errors_total"
	MetricESVObservations   = "dpreverser_esv_observations_total"
	MetricECRObservations   = "dpreverser_ecr_observations_total"
	MetricStreamsExtracted  = "dpreverser_streams_extracted_total"
	MetricESVsReversed      = "dpreverser_esvs_reversed_total"
	MetricECRsRecovered     = "dpreverser_ecrs_recovered_total"
	MetricGPEvaluations     = "dpreverser_gp_evaluations_total"
	MetricGPCacheHits       = "dpreverser_gp_cache_hits_total"
	MetricGPCacheMisses     = "dpreverser_gp_cache_misses_total"
	MetricGPGenerations     = "dpreverser_gp_generations_total"
	MetricStageDuration     = "dpreverser_stage_duration_seconds"
	MetricStreamDuration    = "dpreverser_stream_inference_duration_seconds"
	MetricDegradedStreams   = "dpreverser_degraded_streams_total"
	MetricAttackSignatures  = "dpreverser_attack_signatures_total"
	// MetricFaultsInjected is registered by the fault injector
	// (internal/faults), not by the pipeline, but the name lives here with
	// the rest of the schema.
	MetricFaultsInjected = "dpreverser_faults_injected_total"
)

// NewPipelineMetrics registers the pipeline metric set on reg. A nil
// registry yields a PipelineMetrics whose every operation is a no-op.
func NewPipelineMetrics(reg *Registry) *PipelineMetrics {
	m := &PipelineMetrics{}
	if reg == nil {
		return m
	}
	m.RunsTotal = reg.Counter(MetricRuns, "completed Reverse pipeline runs")
	m.FramesTotal = reg.Counter(MetricFrames, "raw CAN frames fed to payload assembly")
	m.MessagesAssembled = reg.Counter(MetricMessagesAssembled, "application messages reassembled")
	m.TransportErrors = reg.CounterVec(MetricTransportErrors,
		"transport reassembly failures by transport and reason", "transport", "reason")
	m.ESVObservations = reg.Counter(MetricESVObservations, "extracted ESV field observations")
	m.ECRObservations = reg.Counter(MetricECRObservations, "extracted IO-control observations")
	m.StreamsExtracted = reg.CounterVec(MetricStreamsExtracted,
		"prepared inference streams by kind", "kind")
	m.ESVsReversed = reg.CounterVec(MetricESVsReversed,
		"reversed ECU signal values by result kind", "kind")
	m.ECRsRecovered = reg.Counter(MetricECRsRecovered, "recovered ECU control records")
	m.GPEvaluations = reg.Counter(MetricGPEvaluations, "GP fitness evaluations requested")
	m.GPCacheHits = reg.Counter(MetricGPCacheHits, "GP fitness evaluations served by the cross-generation cache")
	m.GPCacheMisses = reg.Counter(MetricGPCacheMisses, "GP fitness evaluations not served by the cross-generation cache")
	m.GPGenerations = reg.Counter(MetricGPGenerations, "GP generations evolved across all streams")
	m.StageDuration = reg.HistogramVec(MetricStageDuration,
		"pipeline stage wall time in seconds (injected clock)", nil, "stage")
	m.StreamDuration = reg.Histogram(MetricStreamDuration,
		"per-stream formula inference wall time in seconds (injected clock)", nil)
	m.DegradedStreams = reg.CounterVec(MetricDegradedStreams,
		"streams reported degraded, by damaging stage", "stage")
	m.AttackSignatures = reg.CounterVec(MetricAttackSignatures,
		"classified transport-layer attack signatures by class", "class")
	return m
}
