package workload

import (
	"math/rand"

	"timr/internal/temporal"
)

// Open-loop serving load generator.
//
// The serve tier (internal/serve, `timr serve`) scores arriving ad
// impressions against the trained BT models through ScorePlan, whose
// left input is reduced-UBP feature rows. A real frontend would reduce
// each impression against the user's live behavior profile; the
// generator plays both roles: it maintains a per-user sliding-τ search
// history and emits, for every impression, the TrainSchema-shaped
// feature rows (Time, UserId, AdId, Clicked, Keyword, KwCount) that the
// reducer would produce. Searches and impressions interleave on one
// deterministic arrival schedule, and users are drawn Zipf-skewed so a
// hot head of users concentrates load on few partitions.
//
// The generator is open-loop: arrival times are fixed up front
// (Seq → Start + Seq·TickEvery in event time; the serve tier maps
// sequence numbers to wall-clock instants at its configured rate) and
// never slow down because the server lags, so queueing delay shows up
// in the measured latencies instead of being coordinated away.

// LoadConfig parameterizes a LoadGen. Zero fields take defaults.
type LoadConfig struct {
	Seed  int64
	Users int // active user population (default: dataset's Cfg.Users)

	// ZipfS is the skew exponent of the user popularity distribution
	// (must be > 1; default 1.2, matching the dataset's keyword skew).
	ZipfS float64

	// SearchFraction of arrivals are searches — profile updates that
	// produce no score request (default 0.4). Impressions make up the
	// rest; a user with an empty profile always searches first, so every
	// emitted impression is scoreable.
	SearchFraction float64

	// Tau is the profile window τ (default: the dataset's Cfg.Tau).
	Tau temporal.Time

	// Start is the event time of the first arrival. Serving joins
	// against models trained on an earlier period, so Start must lie
	// inside the models' validity (e.g. Params.TrainPeriod).
	Start temporal.Time

	// TickEvery is the event-time gap between consecutive arrivals
	// (default 1 tick). Each arrival owns a distinct timestamp, which is
	// what lets the serve tier key per-impression latency by Time.
	TickEvery temporal.Time
}

func (c LoadConfig) withDefaults(d *Dataset) LoadConfig {
	if c.Users <= 0 {
		c.Users = d.Cfg.Users
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.SearchFraction <= 0 {
		c.SearchFraction = 0.4
	}
	if c.Tau <= 0 {
		c.Tau = d.Cfg.Tau
	}
	if c.TickEvery <= 0 {
		c.TickEvery = 1
	}
	return c
}

// Request is one generated arrival. Searches update the user's profile
// and carry no rows; impressions carry the feature rows to feed
// ScorePlan's reduced-UBP input.
type Request struct {
	Seq    int
	Time   temporal.Time // unique per request: Start + Seq·TickEvery
	UserId int64
	Search bool

	Keyword int64 // the searched keyword (Search only)

	AdId    int64          // the scored ad (impressions only)
	Clicked int64          // planted ground-truth outcome (impressions only)
	Rows    []temporal.Row // TrainSchema rows, one per profiled keyword
}

// LoadGen produces the deterministic arrival sequence. Determinism is
// in (dataset, config, call order): two generators over the same inputs
// yield byte-identical request streams, which is what makes serve
// benchmarks and the serve differentials reproducible.
type LoadGen struct {
	cfg  LoadConfig
	ads  []AdClass
	eff  map[int64][]kwEffect
	kws  int
	base float64 // BaseCTR
	cap_ float64 // click-probability cap

	root  *rand.Rand
	uzipf *rand.Zipf
	users map[int64]*userState
	seq   int

	// Per-impression scratch, reused across calls: keyword counts of the
	// profile and the keywords in first-search order.
	counts map[int64]int64
	order  []int64

	// Running tallies, for serve reports.
	Searches    int
	Impressions int
}

type kwEffect struct {
	ad   int64
	mult float64
}

type userState struct {
	rng       *rand.Rand
	kwZipf    *rand.Zipf
	interests []int64
	hist      []searchRec
}

type searchRec struct {
	t  temporal.Time
	kw int64
}

// NewLoadGen builds a generator over a dataset's ground truth: the same
// planted keyword→ad correlations that produced the training log drive
// the serving stream, so model scores separate clicked from non-clicked
// impressions for real reasons.
func NewLoadGen(d *Dataset, cfg LoadConfig) *LoadGen {
	cfg = cfg.withDefaults(d)
	g := &LoadGen{
		cfg: cfg, ads: d.Ads, kws: d.Cfg.Keywords,
		base: d.Cfg.BaseCTR, cap_: 0.9,
		eff:    make(map[int64][]kwEffect),
		root:   rand.New(rand.NewSource(cfg.Seed*7_368_787 + 11)),
		users:  make(map[int64]*userState),
		counts: make(map[int64]int64),
	}
	for _, cls := range d.Ads {
		for _, k := range cls.Pos {
			g.eff[k] = append(g.eff[k], kwEffect{ad: cls.ID, mult: d.Cfg.PosLift})
		}
		for _, k := range cls.Neg {
			g.eff[k] = append(g.eff[k], kwEffect{ad: cls.ID, mult: d.Cfg.NegDamp})
		}
	}
	g.uzipf = rand.NewZipf(g.root, cfg.ZipfS, 4, uint64(cfg.Users-1))
	return g
}

// user lazily materializes per-user state, seeded off the user id alone
// so the state a user reaches is independent of when it first appears.
func (g *LoadGen) user(uid int64) *userState {
	if st, ok := g.users[uid]; ok {
		return st
	}
	rng := rand.New(rand.NewSource(g.cfg.Seed*2_000_003 + uid))
	st := &userState{rng: rng, kwZipf: rand.NewZipf(rng, 1.2, 4, uint64(g.kws-1))}
	for i := 0; i < 4; i++ {
		if rng.Float64() < 0.5 && len(g.ads) > 0 {
			cls := g.ads[rng.Intn(len(g.ads))]
			pool := cls.Pos
			if rng.Float64() < 0.5 {
				pool = cls.Neg
			}
			if len(pool) > 0 {
				st.interests = append(st.interests, pool[rng.Intn(len(pool))])
				continue
			}
		}
		st.interests = append(st.interests, int64(st.kwZipf.Uint64()))
	}
	g.users[uid] = st
	return st
}

// evict drops history older than the profile window (t-τ, t].
func (st *userState) evict(t, tau temporal.Time) {
	lo := 0
	for lo < len(st.hist) && st.hist[lo].t <= t-tau {
		lo++
	}
	st.hist = st.hist[lo:]
}

// Next produces the next arrival in the open-loop schedule.
func (g *LoadGen) Next() Request { return g.next(true) }

// Skip advances the generator past the next n arrivals without
// materializing their feature rows or counting them in the running
// tallies. The RNG draw sequence is identical to n Next calls, so a
// skipped-then-resumed generator continues the exact same schedule —
// the seek primitive behind durable serve resume, where the committed
// input offset tells the restarted driver how far the dead process got.
func (g *LoadGen) Skip(n int) {
	for i := 0; i < n; i++ {
		g.next(false)
	}
}

func (g *LoadGen) next(emit bool) Request {
	t := g.cfg.Start + temporal.Time(g.seq)*g.cfg.TickEvery
	uid := int64(g.uzipf.Uint64())
	req := Request{Seq: g.seq, Time: t, UserId: uid}
	g.seq++

	st := g.user(uid)
	st.evict(t, g.cfg.Tau)

	if len(st.hist) == 0 || st.rng.Float64() < g.cfg.SearchFraction {
		// Search: update the profile.
		var kw int64
		if st.rng.Float64() < 0.6 {
			kw = st.interests[st.rng.Intn(len(st.interests))]
		} else {
			kw = int64(st.kwZipf.Uint64())
		}
		st.hist = append(st.hist, searchRec{t: t, kw: kw})
		req.Search = true
		req.Keyword = kw
		if emit {
			g.Searches++
		}
		return req
	}

	// Impression: reduce the profile into feature rows and draw the
	// planted ground-truth outcome, mirroring Generate's click model.
	ad := g.ads[st.rng.Intn(len(g.ads))]
	req.AdId = ad.ID

	clear(g.counts)
	counts, order := g.counts, g.order[:0]
	p := g.base
	for _, rec := range st.hist {
		if counts[rec.kw] == 0 {
			order = append(order, rec.kw)
			for _, e := range g.eff[rec.kw] {
				if e.ad == ad.ID {
					p *= e.mult
				}
			}
		}
		counts[rec.kw]++
	}
	g.order = order
	if p > g.cap_ {
		p = g.cap_
	}
	if st.rng.Float64() < p {
		req.Clicked = 1
	}
	if !emit {
		return req
	}
	// The impression's rows are carved from one slab; the request owns it.
	const width = 6
	slab := make(temporal.Row, width*len(order))
	req.Rows = make([]temporal.Row, len(order))
	for i, kw := range order {
		row := slab[i*width : (i+1)*width : (i+1)*width]
		row[0], row[1], row[2] = temporal.Int(int64(t)), temporal.Int(uid), temporal.Int(ad.ID)
		row[3], row[4], row[5] = temporal.Int(req.Clicked), temporal.Int(kw), temporal.Int(counts[kw])
		req.Rows[i] = row
	}
	g.Impressions++
	return req
}
