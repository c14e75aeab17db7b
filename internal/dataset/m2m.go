// Package dataset synthesizes the paper's two datasets at configurable
// scale and holds their in-memory containers: the M2M platform
// signaling dataset (§3.1), the visited-MNO population dataset
// (§4.1), and the SMIP smart-meter dataset (§4.4/§7).
//
// Generators are deterministic in (Seed, Scale); time windows follow
// the paper (11 / 22 / 26 days). Device counts default to roughly a
// tenth of the paper's (which keeps every experiment in seconds) and
// scale linearly.
package dataset

import (
	"slices"
	"sort"
	"sync"
	"time"

	"whereroam/internal/devices"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/netsim"
	"whereroam/internal/pipeline"
	"whereroam/internal/probe"
	"whereroam/internal/radio"
	"whereroam/internal/rng"
	"whereroam/internal/signaling"
)

// M2MConfig parameterizes the platform dataset generator.
type M2MConfig struct {
	Seed    uint64
	Devices int       // IoT SIM population (paper: 120k)
	Days    int       // observation window (paper: 11)
	Start   time.Time // window start (paper: 2018-11-19)
	Policy  netsim.SelectionPolicy
	// SampleRate thins the probe capture (1 = keep everything). A
	// fractional rate samples per record by identity hash — every
	// record's verdict depends only on (seed, record), never on draw
	// order — so sampled captures parallelize like complete ones.
	SampleRate float64
	// Workers bounds FoldM2M's worker pool; values below one mean one
	// worker per CPU. GenerateM2M walks serially and does not read it.
	// Captures — complete and sampled alike — are bit-identical for
	// every worker count.
	Workers int
}

// DefaultM2MConfig returns the standard scaled-down configuration.
func DefaultM2MConfig() M2MConfig {
	return M2MConfig{
		Seed:    1,
		Devices: 12000,
		Days:    11,
		Start:   time.Date(2018, 11, 19, 0, 0, 0, 0, time.UTC),
		Policy:  netsim.PolicySticky,
	}
}

// M2MDeviceTruth is the generator-side ground truth for one platform
// device, used to validate the analyses.
type M2MDeviceTruth struct {
	Home     mccmnc.PLMN
	Roaming  bool
	FailOnly bool
	Profile  devices.PlatformProfile
}

// M2MDataset is the §3 dataset: a transaction stream plus ground
// truth.
type M2MDataset struct {
	Start        time.Time
	Days         int
	Transactions []signaling.Transaction
	Truth        map[identity.DeviceID]M2MDeviceTruth
}

// hmnoSpec describes one of the four home operators behind the
// platform (§3.2).
type hmnoSpec struct {
	plmn mccmnc.PLMN
	// share of the device population.
	share float64
	// roamShare is the fraction of its devices operating abroad.
	roamShare float64
	// footprint is the visited-country pool (ISO codes) with Zipf
	// skew: earlier entries attract more devices. footprintPick is
	// that Zipf sampler, built once with the spec.
	footprint     []string
	footprintPick *rng.Zipf
}

// platformHMNOs encodes the §3.2 numbers: ES 52.3% (82% roaming over
// ~76 countries), MX 42.2% (90% at home, 7 countries), AR 4.7%
// (almost all home), DE ~0.8% (small population, many VMNOs — the
// connected-car profile).
func platformHMNOs() []hmnoSpec {
	// The ES footprint: every registered country except ES, ordered
	// Europe-first so the Zipf head stays in-region.
	var esFootprint []string
	for _, r := range []mccmnc.Region{mccmnc.RegionEurope, mccmnc.RegionLatAm, mccmnc.RegionAPAC, mccmnc.RegionMEA, mccmnc.RegionNorthAmerica} {
		for _, c := range mccmnc.CountriesInRegion(r) {
			if c.ISO != "ES" {
				esFootprint = append(esFootprint, c.ISO)
			}
		}
	}
	specs := []hmnoSpec{
		{plmn: mccmnc.MustParse("21407"), share: 0.523, roamShare: 0.82, footprint: esFootprint},
		{plmn: mccmnc.MustParse("334020"), share: 0.422, roamShare: 0.10,
			footprint: []string{"US", "GT", "CO", "AR", "CL", "PE"}},
		{plmn: mccmnc.MustParse("722070"), share: 0.047, roamShare: 0.05,
			footprint: []string{"UY", "CL", "PY", "BR", "BO"}},
		{plmn: mccmnc.MustParse("26201"), share: 0.008, roamShare: 0.95,
			footprint: []string{"AT", "CH", "FR", "NL", "BE", "PL", "CZ", "IT", "DK", "GB"}},
	}
	for i := range specs {
		specs[i].footprintPick = rng.NewZipf(len(specs[i].footprint), 1.25)
	}
	return specs
}

// m2mWalk is GenerateM2M's state: the world, the drafted population
// with its identities, and the one per-device emission loop, shard.
type m2mWalk struct {
	cfg    M2MConfig
	world  *netsim.World
	specs  []hmnoSpec
	drafts []m2mDraft
	devIDs []identity.DeviceID
	// truths is filled by the walk, index-aligned with drafts (shards
	// own disjoint index ranges, so the writes never overlap).
	truths []M2MDeviceTruth
}

// m2mDraft is the draft-pass output for one device: its home-operator
// draw plus the per-device RNG substream the emission walk resumes.
type m2mDraft struct {
	spec int
	src  rng.Source
}

// m2mPlatformBase is the MSIN base of the platform's per-HMNO IMSI
// blocks.
const m2mPlatformBase = 7_000_000_000

// newM2MWalk builds the world and the population: one serial pass
// drafts each device's home operator from its own substream and
// numbers it from its home's platform block in device order.
func newM2MWalk(cfg M2MConfig) *m2mWalk {
	if cfg.Devices <= 0 || cfg.Days <= 0 {
		panic("dataset: M2M config needs positive Devices and Days")
	}
	root := rng.New(cfg.Seed).Split("m2m")
	specs := platformHMNOs()
	w := &m2mWalk{
		cfg:    cfg,
		world:  netsim.DefaultWorld(),
		specs:  specs,
		drafts: make([]m2mDraft, cfg.Devices),
		devIDs: make([]identity.DeviceID, cfg.Devices),
		truths: make([]M2MDeviceTruth, cfg.Devices),
	}

	weights := make([]float64, len(specs))
	for i, s := range specs {
		weights[i] = s.share
	}
	hmnoPick := rng.NewWeighted(weights)

	next := make(map[blockKey]uint64, len(specs))
	for i := range w.drafts {
		src := root.SplitN("device", uint64(i))
		spec := hmnoPick.DrawFrom(src)
		w.drafts[i] = m2mDraft{spec: spec, src: *src}
		w.devIDs[i] = identity.HashDevice(nextIMSI(next, specs[spec].plmn, m2mPlatformBase))
	}
	return w
}

// shard walks each device of sh (one canonical shard, or the whole
// population for GenerateM2M's serial walk) through its
// attach/switch schedule and the roaming machinery into the
// platform-side probe, and hands emit each device's capture in time
// order: the probe fills the scratch buffer, which the scratch sorter
// stable-sorts before emit sees it. Sampled captures thin per record
// by identity hash, so they fan out over the same shards as complete
// ones.
func (w *m2mWalk) shard(sh pipeline.Shard, emit func(i int, txs []signaling.Transaction)) {
	sc := txScratchPool.Get().(*txScratch)
	defer txScratchPool.Put(sc)
	sink := probe.Sample("hmno-probe", w.cfg.Seed, w.cfg.SampleRate, txSampleKey, sc.add)
	for i := sh.Lo; i < sh.Hi; i++ {
		src := &w.drafts[i].src
		spec := w.specs[w.drafts[i].spec]
		roaming := src.Bool(spec.roamShare)
		prof := devices.NewPlatformIoT(src.Split("profile"), roaming, w.cfg.Days)
		w.truths[i] = M2MDeviceTruth{Home: spec.plmn, Roaming: roaming, FailOnly: prof.FailOnly, Profile: prof}
		sc.buf = sc.buf[:0]
		emitPlatformDevice(sink, w.world, src, w.cfg, spec, w.devIDs[i], prof, sc)
		sortByTime(&sc.order, sc.buf, transactionTime)
		emit(i, sc.buf)
	}
}

// txScratch is a signaling walk's per-device capture buffer and sort
// scratch, plus the platform walk's VMNO and switch-instant scratch and
// the federation plane's per-day buffer.
// Shards borrow one from txScratchPool for their run, so the buffers
// grow to a heavy device's about once per worker instead of once per
// shard.
type txScratch struct {
	buf         []signaling.Transaction
	order       timeSorter
	vmnos       []mccmnc.PLMN
	partners    []mccmnc.PLMN
	switchTimes []time.Time
	day         []signaling.Transaction
}

var txScratchPool = sync.Pool{New: func() any { return new(txScratch) }}

// add is the probe sink that fills the buffer.
func (sc *txScratch) add(tx signaling.Transaction) { sc.buf = append(sc.buf, tx) }

// txSampleKey is the per-record identity a thinning platform probe
// hashes its sampling verdict from. It folds in every field that
// distinguishes transactions of one device at one instant (a switch
// sequence emits three procedures on the same timestamp), so
// distinct records draw independent verdicts while the verdict for a
// given record never depends on arrival order or worker count.
func txSampleKey(tx signaling.Transaction) uint64 {
	k := uint64(tx.Device)*0x9e3779b97f4a7c15 ^ uint64(tx.Time.UnixNano())
	k = k*0x100000001b3 ^ uint64(tx.Procedure)
	return k ^ uint64(tx.Visited.MCC)<<24 ^ uint64(tx.Visited.MNC)<<40
}

// GenerateM2M synthesizes the platform dataset: it builds the world,
// draws the device population, walks each device's attach/switch
// schedule through the roaming machinery in device order and captures
// the resulting transactions with a platform-side probe, time-sorted.
// The walk is serial (cfg.Workers is not read). The sort is stable over
// the device-ordered capture, so ties keep serial emission order and
// each device's subsequence is exactly the time-ordered slice FoldM2M
// hands that device.
func GenerateM2M(cfg M2MConfig) *M2MDataset {
	w := newM2MWalk(cfg)
	var txs []signaling.Transaction
	w.shard(pipeline.Shard{Hi: cfg.Devices}, func(_ int, recs []signaling.Transaction) {
		txs = append(txs, recs...)
	})
	// Stable: ties keep their serial emission order (second-granularity
	// draws collide routinely).
	sortByTime(new(timeSorter), txs, transactionTime)
	ds := &M2MDataset{
		Start:        cfg.Start,
		Days:         cfg.Days,
		Transactions: txs,
		Truth:        make(map[identity.DeviceID]M2MDeviceTruth, len(w.truths)),
	}
	for i := range w.truths {
		ds.Truth[w.devIDs[i]] = w.truths[i]
	}
	return ds
}

// FoldM2M runs GenerateM2M's emission walk without materializing or
// globally sorting the capture: fold(i, truth, txs) is called once for
// every device i in [0, cfg.Devices) with the device's ground truth
// and its captured transactions in time order — exactly its
// subsequence of GenerateM2M(cfg).Transactions (empty when the device
// captured nothing). Calls for distinct devices run concurrently, so
// fold may write only state owned by i; txs is valid only during the
// call.
func FoldM2M(cfg M2MConfig, fold func(i int, truth M2MDeviceTruth, txs []signaling.Transaction)) {
	w := newM2MWalk(cfg)
	foldShards(cfg.Devices, cfg.Workers, w.shard, func(i int, txs []signaling.Transaction) {
		fold(i, w.truths[i], txs)
	})
}

func transactionTime(tx *signaling.Transaction) time.Time { return tx.Time }

// emitPlatformDevice walks one device's schedule and hands every
// transaction to sink. It does not hand them on in time order: the
// switch instants are sorted and every switch chain goes first, then
// the keepalives at random instants — m2mWalk.shard time-sorts the
// device's capture afterwards. sc is the shard's scratch.
func emitPlatformDevice(sink func(signaling.Transaction), world *netsim.World,
	src *rng.Source, cfg M2MConfig, spec hmnoSpec, dev identity.DeviceID, prof devices.PlatformProfile, sc *txScratch) {

	windowS := int64(cfg.Days) * 86400
	randTime := func() time.Time {
		return cfg.Start.Add(time.Duration(src.Int63n(windowS)) * time.Second)
	}

	// Pick the device's visited networks.
	vmnos := sc.pickVMNOs(world, src, spec, prof, cfg.Policy)
	// Failure mode for fail-only devices (drawn once: subscriptions
	// fail consistently, §3.3).
	failResult := signaling.ResultOK
	if prof.FailOnly {
		switch {
		case src.Bool(0.5):
			failResult = signaling.ResultRoamingNotAllowed
		case src.Bool(0.6):
			failResult = signaling.ResultUnknownSubscription
		default:
			failResult = signaling.ResultFeatureUnsupported
		}
	}
	result := func() signaling.Result {
		if prof.FailOnly {
			return failResult
		}
		if src.Bool(0.02) { // sporadic transient failures
			return signaling.ResultNetworkFailure
		}
		return signaling.ResultOK
	}
	// offer delivers a transaction; for fail-only devices every
	// procedure in the chain fails (§3.3 splits devices into the 60%
	// with at least one success and the 40% without any).
	offer := func(tx signaling.Transaction) {
		if prof.FailOnly {
			tx.Result = failResult
		}
		sink(tx)
	}

	// Budget the transaction count: switches cost 3 transactions,
	// the rest are keepalive procedures.
	budget := prof.TotalSignaling
	switches := prof.SwitchesTotal
	if switches*3 > budget {
		switches = budget / 3
	}

	// The device's timeline is segmented by its switch instants: the
	// device camps on vmnos[i mod n] during segment i, so keepalives,
	// switches and the analysis-side switch counting all agree.
	switchTimes := sc.switchTimes[:0]
	for range switches {
		switchTimes = append(switchTimes, randTime())
	}
	sc.switchTimes = switchTimes
	sortByTime(&sc.order, switchTimes, func(t *time.Time) time.Time { return *t })
	vmnoAt := func(t time.Time) mccmnc.PLMN {
		seg := sort.Search(len(switchTimes), func(i int) bool { return switchTimes[i].After(t) })
		return vmnos[seg%len(vmnos)]
	}
	var seq [3]signaling.Transaction
	for s, st := range switchTimes {
		old := vmnos[s%len(vmnos)]
		next := vmnos[(s+1)%len(vmnos)]
		for _, tx := range netsim.AppendSwitchSequence(seq[:0], dev, st, spec.plmn, old, next, radio.RAT4G, result()) {
			offer(tx)
		}
		budget -= 3
	}
	// Keepalive procedures on the segment's VMNO.
	for budget > 0 {
		t := randTime()
		visited := vmnoAt(t)
		switch {
		case src.Bool(0.55):
			tx := signaling.Transaction{
				Device: dev, Time: t, SIM: spec.plmn, Visited: visited,
				Procedure: signaling.ProcUpdateLocation, RAT: radio.RAT4G, Result: result(),
			}
			offer(tx)
			budget--
		case src.Bool(0.8):
			tx := signaling.Transaction{
				Device: dev, Time: t, SIM: spec.plmn, Visited: visited,
				Procedure: signaling.ProcAuthentication, RAT: radio.RAT4G, Result: result(),
			}
			offer(tx)
			budget--
		default:
			for _, tx := range netsim.AppendAttachSequence(seq[:0], dev, t, spec.plmn, visited, radio.RAT4G, result()) {
				offer(tx)
			}
			budget -= 2
		}
	}
}

// pickVMNOs selects the device's visited networks into sc.vmnos: its
// primary country first, spilling to further footprint countries when
// the device uses more VMNOs than the country hosts. policy orders the
// partners within each country (the abl-policy experiment): "strongest"
// concentrates every device on the first partner, "rotate" spreads
// deterministically, "sticky" spreads randomly. The result is valid
// until the next call.
func (sc *txScratch) pickVMNOs(world *netsim.World, src *rng.Source, spec hmnoSpec, prof devices.PlatformProfile, policy netsim.SelectionPolicy) []mccmnc.PLMN {
	out := sc.vmnos[:0]
	defer func() { sc.vmnos = out }()
	if !prof.Roaming {
		out = append(out, spec.plmn)
		return out
	}
	primary := spec.footprint[spec.footprintPick.DrawFrom(src)-1]
	countryIdx := 0
	country := primary
	for len(out) < prof.NumVMNOs {
		added := false
		sc.partners = world.AppendPartners(sc.partners[:0], spec.plmn, country)
		n := len(sc.partners)
		var off int
		if n > 1 {
			switch policy {
			case netsim.PolicyStrongest:
				off = 0
			case netsim.PolicyRotate:
				off = prof.NumVMNOs % n
			default: // PolicySticky
				off = src.Intn(n)
			}
		}
		for k := range n {
			p := sc.partners[(off+k)%n]
			if slices.Contains(out, p) {
				continue
			}
			out = append(out, p)
			added = true
			if len(out) == prof.NumVMNOs {
				break
			}
		}
		if len(out) == prof.NumVMNOs {
			break
		}
		// Spill to the next footprint country.
		countryIdx++
		if countryIdx >= len(spec.footprint) {
			if !added && len(out) == 0 {
				// Nowhere to roam at all: fall back to home.
				out = append(out[:0], spec.plmn)
				return out
			}
			break
		}
		country = spec.footprint[countryIdx]
	}
	if len(out) == 0 {
		out = append(out, spec.plmn)
	}
	return out
}
