// Package whereroam reproduces the measurement system of "Where
// Things Roam: Uncovering Cellular IoT/M2M Connectivity" (IMC 2020):
// the roaming-label and M2M-classification pipeline a visited mobile
// operator runs over its devices-catalog, the passive-measurement
// substrate that builds the catalog, and — because the paper's
// operator datasets are NDA-bound — a deterministic cellular roaming
// simulator that regenerates both datasets at configurable scale.
//
// The package is a facade: it re-exports the stable API of the
// internal packages so that applications interact with one import.
//
//	sess := whereroam.NewSession(1, 1.0)
//	mno := sess.MNO()
//	labeler := whereroam.NewLabeler(mno.Host, mno.MVNOs()...)
//	pop := whereroam.DerivePopulation(mno.Catalog, mno.GSMA, labeler, 0)
//	// pop.Results[i] and pop.Labels[i] describe pop.Sums[i]
//
// The experiment runners regenerate every table and figure of the
// paper's evaluation; see cmd/roamrepro (-list names them, -experiment
// all prints every report with the paper's figure beside the measured
// one).
package whereroam

import (
	"whereroam/internal/analysis"
	"whereroam/internal/apn"
	"whereroam/internal/catalog"
	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/devices"
	"whereroam/internal/experiments"
	"whereroam/internal/gsma"
	"whereroam/internal/identity"
	"whereroam/internal/ingest"
	"whereroam/internal/mccmnc"
	"whereroam/internal/netsim"
	"whereroam/internal/obs"
	"whereroam/internal/pipeline"
	"whereroam/internal/probe"
	"whereroam/internal/serve"
	"whereroam/internal/settlement"
	"whereroam/internal/signaling"
	"whereroam/internal/store"
)

// Identity plane.
type (
	// PLMN identifies a mobile network (MCC + MNC).
	PLMN = mccmnc.PLMN
	// IMSI is a subscriber identity.
	IMSI = identity.IMSI
	// IMEI is an equipment identity with Luhn check digit.
	IMEI = identity.IMEI
	// TAC is the 8-digit type allocation code prefix of an IMEI.
	TAC = identity.TAC
	// DeviceID is the one-way-hashed device identifier used in traces.
	DeviceID = identity.DeviceID
	// APN is a parsed access point name.
	APN = apn.APN
)

// ParsePLMN parses "21407" / "334020"-style concatenated codes.
func ParsePLMN(s string) (PLMN, error) { return mccmnc.Parse(s) }

// ParseAPN parses an access point name, with or without the operator
// identifier suffix.
func ParseAPN(s string) (APN, error) { return apn.Parse(s) }

// Measurement plane.
type (
	// Transaction is one control-plane signaling record (§3.1 schema).
	Transaction = signaling.Transaction
	// DailyRecord is one device-day of the devices-catalog (§4.1).
	DailyRecord = catalog.DailyRecord
	// Catalog is a full observation window of daily records.
	Catalog = catalog.Catalog
	// Summary is a device aggregated across the window.
	Summary = catalog.Summary
	// GSMADB is the TAC device database.
	GSMADB = gsma.DB
)

// The paper's contribution: labels and classification.
type (
	// Label is a roaming label <X:Y> (§4.2).
	Label = core.Label
	// Labeler assigns roaming labels for one observing MNO.
	Labeler = core.Labeler
	// Classifier is the multi-step M2M classifier (§4.3).
	Classifier = core.Classifier
	// Class is the classifier output (smart/feat/m2m/m2m-maybe).
	Class = core.Class
	// ClassResult is one device's classification with its evidence.
	ClassResult = core.Result
	// Validation holds classifier-vs-ground-truth metrics.
	Validation = core.Validation
	// Population is one operator's classified device population:
	// position-aligned summaries, class results and roaming labels,
	// sorted by device.
	Population = core.Population
)

// Classifier output classes.
const (
	ClassSmart    = core.ClassSmart
	ClassFeat     = core.ClassFeat
	ClassM2M      = core.ClassM2M
	ClassM2MMaybe = core.ClassM2MMaybe
)

// NewClassifier returns the standard classification pipeline.
func NewClassifier() *Classifier { return core.NewClassifier() }

// NewLabeler returns a labeler for the host MNO and its MVNOs.
func NewLabeler(host PLMN, mvnos ...PLMN) *Labeler { return core.NewLabeler(host, mvnos...) }

// DerivePopulation summarizes a catalog per device (joining db; nil =
// no GSMA join) and attaches the standard classifier's verdict and
// labeler's roaming label to every device. workers below one = one
// worker per CPU; the result is identical at any worker count.
func DerivePopulation(cat *Catalog, db *GSMADB, labeler *Labeler, workers int) *Population {
	return core.Derive(cat, db, labeler, workers)
}

// Validate compares classification results against simulator ground
// truth.
func Validate(results []ClassResult, truth map[DeviceID]devices.Class) (*Validation, error) {
	return core.Validate(results, truth)
}

// Breakdown counts classification results per class.
func Breakdown(results []ClassResult) map[Class]int { return core.Breakdown(results) }

// Simulation plane.
type (
	// M2MConfig parameterizes the §3 platform dataset generator.
	M2MConfig = dataset.M2MConfig
	// MNOConfig parameterizes the §4 visited-MNO dataset generator.
	MNOConfig = dataset.MNOConfig
	// SMIPConfig parameterizes the §7 smart-meter dataset generator.
	SMIPConfig = dataset.SMIPConfig
	// M2MDataset is the platform signaling dataset.
	M2MDataset = dataset.M2MDataset
	// MNODataset is the visited-MNO dataset.
	MNODataset = dataset.MNODataset
	// SMIPDataset is the smart-meter dataset.
	SMIPDataset = dataset.SMIPDataset
	// World is the operator/agreement topology.
	World = netsim.World
	// DeviceClass is the generator-side ground-truth vertical.
	DeviceClass = devices.Class
	// FederationConfig parameterizes the multi-operator generator.
	FederationConfig = dataset.FederationConfig
	// FederationDataset is the multi-operator dataset: shared world,
	// GSMA catalog and roamer fleet plus one site per visited MNO.
	FederationDataset = dataset.FederationDataset
	// FederationSite is one visited operator's slice of a federation
	// dataset.
	FederationSite = dataset.FederationSite
	// FederationM2M is the federated §3/§6 transaction plane: the
	// shared fleet's signaling stream, consistent with the presence
	// schedule.
	FederationM2M = dataset.FederationM2M
	// FederationSMIP is the federated §7 smart-meter plane: one
	// meters-only dataset per site over the shared fleet's meters.
	FederationSMIP = dataset.FederationSMIP
)

// Dataset generators with the paper's default shapes.
var (
	DefaultM2MConfig  = dataset.DefaultM2MConfig
	DefaultMNOConfig  = dataset.DefaultMNOConfig
	DefaultSMIPConfig = dataset.DefaultSMIPConfig
	GenerateM2M       = dataset.GenerateM2M
	GenerateMNO       = dataset.GenerateMNO
	GenerateSMIP      = dataset.GenerateSMIP
	SynthesizeGSMA    = gsma.Synthesize
	NewWorld          = netsim.NewWorld
	DefaultWorld      = netsim.DefaultConfig
	// DefaultFederationConfig is the standard three-site federation
	// shape; GenerateFederation builds the multi-operator dataset
	// from it.
	DefaultFederationConfig = dataset.DefaultFederationConfig
	// DefaultFederationHosts lists the standard three visited MNOs.
	DefaultFederationHosts = dataset.DefaultFederationHosts
	// GenerateFederation synthesizes one shared world and roamer
	// fleet observed by N visited operators.
	GenerateFederation = dataset.GenerateFederation
	// GenerateFederationM2M derives the §3/§6 signaling view of an
	// already-built federation: every transaction follows the shared
	// per-day presence schedule.
	GenerateFederationM2M = dataset.GenerateFederationM2M
	// StreamFederationM2M runs GenerateFederationM2M's emission walk
	// into a sink in deterministic order instead of materializing it.
	StreamFederationM2M = dataset.StreamFederationM2M
	// GenerateFederationSMIP derives the per-site §7 smart-meter
	// views of an already-built federation.
	GenerateFederationSMIP = dataset.GenerateFederationSMIP
)

// Streaming ingestion plane: bounded-memory catalog builds over live
// record streams (see internal/ingest and docs/ARCHITECTURE.md).
type (
	// CatalogIngester routes live radio/CDR streams into shard-local
	// catalog builders over bounded channels; the built catalog is
	// bit-identical to a batch build at any worker count.
	CatalogIngester = ingest.CatalogIngester
	// RecordStream is a bounded channel-based record source (the
	// PacketSource idiom), generic over the record type.
	RecordStream[T any] = probe.Stream[T]
	// MNOSink receives a streamed MNO generation: one Device callback
	// per device (with its IR.88 verdict) and one Record callback per
	// catalog record, in the materialized order.
	MNOSink = dataset.MNOSink
	// MNOStream summarizes a finished StreamMNO run — counts and the
	// transparency registry.
	MNOStream = dataset.MNOStream
)

// Streaming constructors and generators.
var (
	// NewCatalogIngester starts a streaming catalog build over a
	// sharded builder; non-positive depth means ingest.DefaultDepth.
	NewCatalogIngester = ingest.NewCatalogIngester
	// GenerateSMIPStreaming builds the §7 SMIP dataset through the
	// per-event measurement path without materializing the capture.
	GenerateSMIPStreaming = dataset.GenerateSMIPStreaming
	// StreamM2M delivers the §3 platform transaction stream to a sink
	// in deterministic order under a bounded producer window.
	StreamM2M = dataset.StreamM2M
	// ReadTransactions decodes a binary signaling wire stream into a
	// sink record by record — the signaling twin of
	// CatalogIngester.ReadRecords.
	ReadTransactions = ingest.ReadTransactions
	// StreamMNO runs GenerateMNO's emission walk into an MNOSink
	// instead of materializing it: at most one device is resident per
	// worker, and the sink sees the materialized order bit for bit at
	// any worker count.
	StreamMNO = dataset.StreamMNO
)

// Fanout forwards each record to several sinks in order — the
// persist-and-ingest primitive: point one sink at an archive writer
// and another at a live consumer or ingester.
func Fanout[T any](sinks ...func(T)) func(T) { return probe.Fanout(sinks...) }

// Archive plane: the segmented, indexed, append-only store that makes
// record feeds durable — archived once while a live build ingests
// them, replayed many times with index-driven pruning (see
// internal/store and docs/ARCHITECTURE.md).
type (
	// ArchiveMeta is the stream metadata a store carries (observing
	// host, window start, window length).
	ArchiveMeta = store.Meta
	// ArchiveWriter persists a CDR/xDR feed into segment files; its
	// Sink is a valid probe fanout target.
	ArchiveWriter = store.Writer
	// SignalingArchiveWriter persists a signaling-transaction feed.
	SignalingArchiveWriter = store.SignalingWriter
	// ArchiveReader reads a store back: verification, query planning,
	// pruned sequential replay, and the concurrent catalog rebuild.
	ArchiveReader = store.Reader
	// ArchiveQuery selects what a replay reads: day range, device
	// range or exact device (bloom-pruned), visited network; the zero
	// query keeps everything. Queries also narrow compactions.
	ArchiveQuery = store.Query
	// ArchiveQueryPlan is the dry-run view of a query's segment
	// selection: what would be read, what the indexes prune.
	ArchiveQueryPlan = store.QueryPlan
	// ArchiveStats instruments a replay: segments read vs pruned
	// (range and bloom) vs torn, bytes read, records kept.
	ArchiveStats = store.ReplayStats
	// ArchiveManifest is the store-level segment index.
	ArchiveManifest = store.Manifest
	// ArchiveManifestInfo reports how a store's manifest was
	// materialized: format version, checkpoint coverage, log tail.
	ArchiveManifestInfo = store.ManifestInfo
	// ArchiveCompactOptions tunes CompactArchive: output segment
	// size, narrowing query, merge fan-in, temp-file placement.
	ArchiveCompactOptions = store.CompactOptions
	// ArchiveCompactPlan is CompactArchive's dry-run view: what would
	// merge, from where, in how many passes.
	ArchiveCompactPlan = store.CompactPlan
	// ArchiveCompactStats reports what a compaction did: segments
	// merged vs pruned, records in vs out, passes run.
	ArchiveCompactStats = store.CompactStats
)

// Archive constructors.
var (
	// NewArchiveWriter creates a CDR/xDR store at a directory;
	// non-positive segment size means store.DefaultSegmentRecords.
	NewArchiveWriter = store.NewWriter
	// NewSignalingArchiveWriter creates a signaling-transaction store.
	NewSignalingArchiveWriter = store.NewSignalingWriter
	// OpenArchive loads a store's manifest for verification or replay.
	OpenArchive = store.Open
	// CompactArchive merges N input stores into one time-ordered
	// store whose replay is bit-identical to replaying the inputs.
	CompactArchive = store.Compact
	// PlanArchiveCompaction returns the merge plan CompactArchive
	// would execute, without reading any segment body.
	PlanArchiveCompaction = store.PlanCompact
)

// Serving plane: the read-only HTTP/JSON query daemon over archive
// stores — replayed slices in a size-bounded LRU with single-flight
// fill (see internal/serve, cmd/roamd and docs/ARCHITECTURE.md).
type (
	// QueryServer answers catalog, classification and analysis
	// queries over mounted archive stores.
	QueryServer = serve.Server
	// QueryServerConfig parameterizes a QueryServer (fill
	// parallelism, cache bound).
	QueryServerConfig = serve.Config
	// ServedSite is one mounted store's row in the site listing.
	ServedSite = serve.SiteInfo
	// ServeCacheStats snapshots the slice cache's counters.
	ServeCacheStats = serve.CacheStats
	// LoadConfig parameterizes the closed-loop load generator.
	LoadConfig = serve.LoadConfig
	// LoadResult is one load run's latency/throughput accounting.
	LoadResult = serve.LoadResult
)

// Serving constructors.
var (
	// NewQueryServer returns an empty query server; mount stores with
	// Mount or MountSites, then serve Handler().
	NewQueryServer = serve.New
	// RunServeLoad drives a closed-loop request mix against a running
	// daemon and reports per-op latency percentiles and throughput.
	RunServeLoad = serve.RunLoad
)

// Observability plane: the zero-dependency metrics registry and span
// tracer the daemon, store and ingest layers report into. Every hook
// in the instrumented packages is a nil-safe no-op, so servers built
// without a registry run the uninstrumented code paths byte for byte
// (see internal/obs and the "Observability" section of
// docs/ARCHITECTURE.md).
type (
	// MetricsRegistry holds counters, gauges and histograms and writes
	// Prometheus text exposition.
	MetricsRegistry = obs.Registry
	// SpanTracer records recent operation spans and logs slow ones.
	SpanTracer = obs.Tracer
)

// Observability constructors.
var (
	// NewMetricsRegistry returns an empty metrics registry.
	NewMetricsRegistry = obs.NewRegistry
	// NewSpanTracer returns a ring-buffered tracer; ops slower than
	// the threshold go to the log function.
	NewSpanTracer = obs.NewTracer
)

// Experiments.
type (
	// Federation is the session layer: one shared world observed from
	// any number of visited-operator sites. A single-site Federation
	// is the classic Session.
	Federation = experiments.Federation
	// Site is one visited operator's analysis view inside a
	// Federation: summaries, labels and classification derived from
	// its own catalog.
	Site = experiments.Site
	// Session shares datasets between experiment runners; it is an
	// alias of Federation (the single-site view).
	Session = experiments.Session
	// Experiment is a registered table/figure runner.
	Experiment = experiments.Runner
	// Report is an experiment outcome.
	Report = experiments.Report
	// ResultTable is an aligned plain-text table.
	ResultTable = analysis.Table
	// ECDF is an empirical CDF.
	ECDF = analysis.ECDF
)

// Extensions beyond the paper's evaluation (§8 directions).
type (
	// TransparencyRegistry holds IR.88-style M2M declarations.
	TransparencyRegistry = core.Registry
	// TransparencyDeclaration is one home operator's published data.
	TransparencyDeclaration = core.Declaration
	// RateCard is a wholesale inter-operator tariff.
	RateCard = settlement.RateCard
	// SettlementStatement is an inbound-roaming settlement run.
	SettlementStatement = settlement.Statement
	// LatencyModel estimates user-plane RTT per roaming architecture.
	LatencyModel = netsim.LatencyModel
	// RoamingConfig is a roaming architecture (HR / LBO / IHBO).
	RoamingConfig = netsim.RoamingConfig
)

// Extension constructors.
var (
	NewTransparencyRegistry = core.NewRegistry
	DefaultRates            = settlement.DefaultRates
	Settle                  = settlement.Settle
	DefaultLatencyModel     = netsim.DefaultLatencyModel
)

// NewSession returns an experiment session at the given seed and
// scale factor (1.0 ≈ one tenth of paper scale). Pipelines run with
// one worker per CPU; results are identical for every worker count.
func NewSession(seed uint64, factor float64) *Session {
	return experiments.NewSession(seed, factor)
}

// NewFederation returns a multi-site session: one shared GSMA
// catalog, operator world and global roamer fleet, observed
// independently by every visited MNO in hosts (none = the default
// three-site footprint). Every classic runner works on it unchanged;
// the fed-* runners and Sites() expose the cross-site views.
func NewFederation(seed uint64, factor float64, workers int, hosts ...PLMN) *Federation {
	return experiments.NewFederation(seed, factor, workers, hosts...)
}

// NewSessionWorkers is NewSession with an explicit pipeline worker
// count (below one = one worker per CPU, one = serial). Same seed and
// factor produce bit-identical datasets, summaries and classification
// results at every worker count.
func NewSessionWorkers(seed uint64, factor float64, workers int) *Session {
	return experiments.NewSessionWorkers(seed, factor, workers)
}

// PipelineWorkers normalizes a worker count the way every Workers
// config field and -workers flag does: values below one mean one
// worker per available CPU.
func PipelineWorkers(n int) int { return pipeline.Workers(n) }

// Experiments returns every registered table/figure runner in paper
// order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID returns one runner ("t1", "fig2", ..., "abl-policy").
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }

// NewECDF builds an empirical CDF from samples.
func NewECDF(samples []float64) *ECDF { return analysis.NewECDF(samples) }
