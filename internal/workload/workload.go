// Package workload generates synthetic advertising logs in the unified
// schema of the paper's Figure 9 (Time, StreamId, UserId, KwAdId).
//
// The paper evaluates on one week of real Microsoft ad-platform logs
// (terabytes; ~250M users, ~50M keywords), which we cannot obtain. The
// generator substitutes a seeded synthetic equivalent that preserves the
// properties the paper's algorithms exploit:
//
//   - keyword popularity is Zipf-distributed with a long tail, so feature
//     selection must separate signal from popular-but-irrelevant words;
//   - each ad class has planted positively and negatively correlated
//     keywords: searching a positive keyword within the profile window τ
//     multiplies the user's click probability on that ad class (and
//     dampens it for negative keywords) — exactly the behavior-to-click
//     correlation of paper Example 2 and Figures 17–19;
//   - a small fraction of users are bots with enormously inflated search
//     and click rates whose clicks ignore their behavior profile, diluting
//     correlations unless removed (§IV-B.1 reports 0.5% of users causing
//     13% of clicks);
//   - activity follows a diurnal cycle, giving the RunningClickCount
//     example visible periodic trends.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"

	"timr/internal/par"
	"timr/internal/temporal"
)

// Stream identifiers of the unified schema (paper §III-C.4): "StreamId
// values of 0, 1, and 2 refer to ad impression, ad click, and keyword
// (searches and pageviews) data respectively."
const (
	StreamImpression int64 = 0
	StreamClick      int64 = 1
	StreamKeyword    int64 = 2
)

// UnifiedSchema is the composite BT input schema of Figure 9. Based on
// StreamId, KwAdId holds either a keyword id or an ad id. Ids are int64
// (the paper uses strings; integer ids are an equivalent dense encoding).
func UnifiedSchema() *temporal.Schema {
	return temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "StreamId", Kind: temporal.KindInt},
		temporal.Field{Name: "UserId", Kind: temporal.KindInt},
		temporal.Field{Name: "KwAdId", Kind: temporal.KindInt},
	)
}

// AdIDBase offsets ad ids above every keyword id so the two id spaces of
// the shared KwAdId column never collide.
const AdIDBase int64 = 1 << 40

// Config parameterizes generation. Zero fields take defaults.
type Config struct {
	Users     int
	Keywords  int
	AdClasses int
	Days      int
	Seed      int64

	SearchesPerUserDay      float64
	ImpressionsPerUserDay   float64
	BaseCTR                 float64
	PosLift                 float64 // click-probability multiplier per positive keyword
	NegDamp                 float64 // multiplier per negative keyword (<1)
	PosKeywordsPerAd        int
	NegKeywordsPerAd        int
	InterestKeywordsPerUser int
	BotFraction             float64
	BotRateMultiplier       float64
	Tau                     temporal.Time // profile window for planted correlations
}

// DefaultConfig is a laptop-scale stand-in for the paper's week of logs.
func DefaultConfig() Config {
	return Config{
		Users: 4000, Keywords: 4000, AdClasses: 10, Days: 7, Seed: 1,
		SearchesPerUserDay: 20, ImpressionsPerUserDay: 14,
		BaseCTR: 0.08, PosLift: 4.0, NegDamp: 0.45,
		PosKeywordsPerAd: 8, NegKeywordsPerAd: 8,
		InterestKeywordsPerUser: 6,
		BotFraction:             0.005,
		BotRateMultiplier:       40,
		Tau:                     6 * temporal.Hour,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Users <= 0 {
		c.Users = d.Users
	}
	if c.Keywords <= 0 {
		c.Keywords = d.Keywords
	}
	if c.AdClasses <= 0 {
		c.AdClasses = d.AdClasses
	}
	if c.Days <= 0 {
		c.Days = d.Days
	}
	if c.SearchesPerUserDay <= 0 {
		c.SearchesPerUserDay = d.SearchesPerUserDay
	}
	if c.ImpressionsPerUserDay <= 0 {
		c.ImpressionsPerUserDay = d.ImpressionsPerUserDay
	}
	if c.BaseCTR <= 0 {
		c.BaseCTR = d.BaseCTR
	}
	if c.PosLift <= 0 {
		c.PosLift = d.PosLift
	}
	if c.NegDamp <= 0 {
		c.NegDamp = d.NegDamp
	}
	if c.PosKeywordsPerAd <= 0 {
		c.PosKeywordsPerAd = d.PosKeywordsPerAd
	}
	if c.NegKeywordsPerAd <= 0 {
		c.NegKeywordsPerAd = d.NegKeywordsPerAd
	}
	if c.InterestKeywordsPerUser <= 0 {
		c.InterestKeywordsPerUser = d.InterestKeywordsPerUser
	}
	if c.BotRateMultiplier <= 0 {
		c.BotRateMultiplier = d.BotRateMultiplier
	}
	if c.Tau <= 0 {
		c.Tau = d.Tau
	}
	return c
}

// AdClass is one data-driven ad class with its planted correlations.
type AdClass struct {
	ID   int64
	Name string
	Pos  []int64 // keyword ids positively correlated with clicks
	Neg  []int64 // keyword ids negatively correlated with clicks
}

// Dataset is a generated log with its ground truth.
type Dataset struct {
	Cfg          Config
	Rows         []temporal.Row // unified schema, sorted by Time
	Ads          []AdClass
	KeywordNames map[int64]string
	Bots         map[int64]bool
	Horizon      temporal.Time // [0, Horizon)
}

// Paper-named vocabulary: ad-class names and the keywords of Figures
// 17–19, wired to the matching classes so the z-test reproduction yields
// recognizable tables.
var adClassNames = []string{
	"deodorant", "laptop", "cellphone", "movies", "dieting",
	"games", "travel", "finance", "fitness", "autos",
}

var namedKeywords = map[string][2][]string{
	// name -> {positive keywords, negative keywords}
	"deodorant": {
		{"celebrity", "icarly", "tattoo", "games", "chat", "videos", "hannah", "exam", "music"},
		{"verizon", "construct", "service", "ford", "hotels", "jobless", "pilot", "credit", "craigslist"},
	},
	"laptop": {
		{"dell", "laptops", "computers", "juris", "toshiba", "vostro", "hp"},
		{"pregnant", "stars", "wang", "vera", "dancing", "myspace", "facebook"},
	},
	"cellphone": {
		{"blackberry", "curve", "enable", "tmobile", "phones", "wireless", "att", "verizon"},
		{"recipes", "times", "national", "hotels", "people", "baseball", "porn", "myspace"},
	},
}

// popularIrrelevant are head-of-Zipf keywords that correlate with nothing
// — the words KE-pop wrongly retains ("google, facebook, and msn ...
// were found to be irrelevant to ad clicks", §V-C). The paper's Figure 18
// also plants facebook/myspace as *negative* laptop keywords, so those two
// stay out of this list to keep the ground truth disjoint.
var popularIrrelevant = []string{"google", "msn", "youtube", "yahoo", "weather", "news", "maps", "mail"}

// Generate builds a dataset. Users are generated in parallel, each from
// its own source seeded by (Cfg.Seed, user id). The log is the stable
// Time order of the users' rows taken in user-id order: rows with equal
// Time keep user-id order, and one user's rows keep the order they were
// drawn in. Generation is deterministic in Cfg.Seed, whatever GOMAXPROCS
// is.
func Generate(cfg Config) *Dataset {
	cfg = cfg.withDefaults()
	root := rand.New(rand.NewSource(cfg.Seed))
	d := &Dataset{
		Cfg:          cfg,
		KeywordNames: make(map[int64]string),
		Bots:         make(map[int64]bool),
		Horizon:      temporal.Time(cfg.Days) * temporal.Day,
	}

	// ---- Vocabulary ----
	// Keyword ids [0, Keywords): low ids are the popular head of the Zipf
	// distribution. Names: popular irrelevant words first (so they are
	// genuinely popular), then the paper's named keywords, then synthetic.
	names := append([]string{}, popularIrrelevant...)
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, cls := range adClassNames {
		if kw, ok := namedKeywords[cls]; ok {
			for _, lists := range kw {
				for _, n := range lists {
					if !seen[n] {
						seen[n] = true
						names = append(names, n)
					}
				}
			}
		}
	}
	for i := 0; i < cfg.Keywords; i++ {
		var n string
		if i < len(names) {
			n = names[i]
		} else {
			n = fmt.Sprintf("kw%05d", i)
		}
		d.KeywordNames[int64(i)] = n
	}
	nameToID := make(map[string]int64, cfg.Keywords)
	for id, n := range d.KeywordNames {
		nameToID[n] = id
	}

	// ---- Ad classes with planted correlations ----
	for a := 0; a < cfg.AdClasses; a++ {
		cls := AdClass{ID: AdIDBase + int64(a)}
		if a < len(adClassNames) {
			cls.Name = adClassNames[a]
		} else {
			cls.Name = fmt.Sprintf("adclass%02d", a)
		}
		if kw, ok := namedKeywords[cls.Name]; ok {
			for _, n := range kw[0] {
				cls.Pos = append(cls.Pos, nameToID[n])
			}
			for _, n := range kw[1] {
				cls.Neg = append(cls.Neg, nameToID[n])
			}
		}
		// Top up with mid-popularity synthetic keywords (never the
		// irrelevant head, never another class's keywords).
		taken := map[int64]bool{}
		for _, other := range d.Ads {
			for _, k := range other.Pos {
				taken[k] = true
			}
			for _, k := range other.Neg {
				taken[k] = true
			}
		}
		for _, k := range cls.Pos {
			taken[k] = true
		}
		for _, k := range cls.Neg {
			taken[k] = true
		}
		sample := func(n int, into *[]int64) {
			lo, hi := len(popularIrrelevant), cfg.Keywords/2
			if hi <= lo {
				hi = cfg.Keywords
			}
			// Exhaustion guard: with a small vocabulary the classes can
			// collectively need more keywords than the band holds. Widen to
			// the full tail, then give up rather than redraw forever. The
			// checks burn no RNG draws, so feasible configurations generate
			// the exact same dataset as before.
			free := func() int {
				n := 0
				for k := lo; k < hi; k++ {
					if !taken[int64(k)] {
						n++
					}
				}
				return n
			}
			for len(*into) < n {
				if free() == 0 {
					if hi < cfg.Keywords {
						hi = cfg.Keywords
						continue
					}
					break // vocabulary exhausted: the class gets fewer keywords
				}
				k := int64(lo + root.Intn(hi-lo))
				if !taken[k] {
					taken[k] = true
					*into = append(*into, k)
				}
			}
		}
		sample(cfg.PosKeywordsPerAd, &cls.Pos)
		sample(cfg.NegKeywordsPerAd, &cls.Neg)
		d.Ads = append(d.Ads, cls)
	}

	// Keyword effect index: keyword -> (adIndex -> multiplier).
	type effect struct {
		ad   int
		mult float64
	}
	effects := make(map[int64][]effect)
	for ai, cls := range d.Ads {
		for _, k := range cls.Pos {
			effects[k] = append(effects[k], effect{ad: ai, mult: cfg.PosLift})
		}
		for _, k := range cls.Neg {
			effects[k] = append(effects[k], effect{ad: ai, mult: cfg.NegDamp})
		}
	}

	// ---- Users ----
	nBots := int(float64(cfg.Users) * cfg.BotFraction)
	for u := 0; u < nBots; u++ {
		d.Bots[int64(u)] = true // low ids are bots; position has no effect
	}

	// A user's rows depend only on (Seed, user) and on tables that are
	// read-only from here on (d.Ads, effects, d.Bots), so users generate
	// in parallel, each into its own list. The callback never fails, so
	// ForEach's error is always nil.
	perUser := make([][]temporal.Row, cfg.Users)
	_ = par.ForEach(runtime.GOMAXPROCS(0), cfg.Users, func(u int) error {
		uid := int64(u)
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(u)))
		isBot := d.Bots[uid]

		searchRate := cfg.SearchesPerUserDay
		imprRate := cfg.ImpressionsPerUserDay
		if isBot {
			searchRate *= cfg.BotRateMultiplier
			imprRate *= cfg.BotRateMultiplier
		}

		// Interests: a few keywords this user searches repeatedly —
		// including planted ones, so correlations have persistent users.
		interests := make([]int64, 0, cfg.InterestKeywordsPerUser)
		uzipf := rand.NewZipf(rng, 1.2, 4, uint64(cfg.Keywords-1))
		for i := 0; i < cfg.InterestKeywordsPerUser; i++ {
			if rng.Float64() < 0.5 {
				// Planted keyword of a random ad class. A vocabulary too
				// small for the classes can leave the drawn pool empty;
				// then the draw takes the Zipf keyword, as LoadGen does.
				cls := d.Ads[rng.Intn(len(d.Ads))]
				pool := cls.Pos
				if rng.Float64() < 0.5 {
					pool = cls.Neg
				}
				if len(pool) > 0 {
					interests = append(interests, pool[rng.Intn(len(pool))])
					continue
				}
			}
			interests = append(interests, int64(uzipf.Uint64()))
		}

		// Searches (sorted by construction of diurnalTimes).
		nSearch := poissonish(rng, searchRate*float64(cfg.Days))
		searchTimes := diurnalTimes(rng, nSearch, d.Horizon)
		searches := make([]struct {
			t  temporal.Time
			kw int64
		}, nSearch)
		for i, t := range searchTimes {
			var kw int64
			switch {
			case isBot:
				kw = int64(rng.Intn(cfg.Keywords))
			case rng.Float64() < 0.6:
				kw = interests[rng.Intn(len(interests))]
			default:
				kw = int64(uzipf.Uint64())
			}
			searches[i].t = t
			searches[i].kw = kw
		}

		// Impressions and clicks. The user's list is made once nImpr is
		// known, sized for a click per impression, and the searches'
		// rows go in first. A list grown by append would free its small
		// early arrays among the rows' own size class and fragment the
		// heap the log lives in.
		nImpr := poissonish(rng, imprRate*float64(cfg.Days))
		rows := make([]temporal.Row, 0, nSearch+2*nImpr)
		emit := func(t temporal.Time, stream, kwAd int64) {
			rows = append(rows, temporal.Row{
				temporal.Int(t), temporal.Int(stream), temporal.Int(uid), temporal.Int(kwAd),
			})
		}
		for _, s := range searches {
			emit(s.t, StreamKeyword, s.kw)
		}
		imprTimes := diurnalTimes(rng, nImpr, d.Horizon)
		lo := 0
		applied := map[int64]bool{}
		for _, t := range imprTimes {
			ad := rng.Intn(len(d.Ads))
			emit(t, StreamImpression, d.Ads[ad].ID)

			var p float64
			if isBot {
				// Bot clicks ignore the behavior profile entirely.
				p = 0.3
			} else {
				p = cfg.BaseCTR
				// Profile effect: planted keywords searched in (t-τ, t].
				for lo < len(searches) && searches[lo].t <= t-cfg.Tau {
					lo++
				}
				clear(applied)
				for i := lo; i < len(searches) && searches[i].t <= t; i++ {
					kw := searches[i].kw
					if applied[kw] {
						continue
					}
					applied[kw] = true
					for _, e := range effects[kw] {
						if e.ad == ad {
							p *= e.mult
						}
					}
				}
				if p > 0.9 {
					p = 0.9
				}
			}
			if rng.Float64() < p {
				// Clicks land within the paper's d = 5 minute non-click
				// detection window after the impression.
				ct := t + 1 + temporal.Time(rng.Int63n(4*temporal.Minute))
				if ct >= d.Horizon {
					ct = d.Horizon - 1
				}
				emit(ct, StreamClick, d.Ads[ad].ID)
			}
		}
		perUser[u] = rows
		return nil
	})

	// The log is the stable Time order of the users' rows concatenated in
	// user-id order: sort (Time, user, position) keys, which are unique,
	// then gather each row once.
	type rowKey struct {
		t         int64
		user, pos int32
	}
	n := 0
	for _, rows := range perUser {
		n += len(rows)
	}
	keys := make([]rowKey, 0, n)
	for u, rows := range perUser {
		for i, r := range rows {
			keys = append(keys, rowKey{t: r[0].AsInt(), user: int32(u), pos: int32(i)})
		}
	}
	slices.SortFunc(keys, func(a, b rowKey) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		if c := cmp.Compare(a.user, b.user); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	d.Rows = make([]temporal.Row, n)
	for i, k := range keys {
		d.Rows[i] = perUser[k.user][k.pos]
	}
	return d
}

// poissonish draws an approximately Poisson count (normal approximation
// above 30 for speed, exact inversion below).
func poissonish(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(mean + math.Sqrt(mean)*rng.NormFloat64() + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// diurnalTimes draws n sorted timestamps over [0, horizon) with a
// day-night activity cycle (peak mid-day, trough at night).
func diurnalTimes(rng *rand.Rand, n int, horizon temporal.Time) []temporal.Time {
	out := make([]temporal.Time, 0, n)
	for len(out) < n {
		t := temporal.Time(rng.Int63n(int64(horizon)))
		tod := float64(t%temporal.Day) / float64(temporal.Day)
		w := 0.55 + 0.45*math.Sin(2*math.Pi*(tod-0.25))
		if rng.Float64() < w {
			out = append(out, t)
		}
	}
	slices.Sort(out)
	return out
}

// Events converts the dataset rows to point events for direct engine runs.
func (d *Dataset) Events() []temporal.Event {
	return temporal.RowsToPointEvents(d.Rows, 0)
}

// SplitHalves splits rows at the time midpoint into train and test halves
// ("We split the dataset into training data and test data equally", §V-A).
func (d *Dataset) SplitHalves() (train, test []temporal.Row) {
	mid := d.Horizon / 2
	i := sort.Search(len(d.Rows), func(i int) bool { return d.Rows[i][0].AsInt() >= mid })
	return d.Rows[:i], d.Rows[i:]
}

// DayRows returns the rows of one calendar day ([day·Day, (day+1)·Day)),
// sliced out of the Time-sorted log — the per-day ingest unit of the
// incremental BT refresher. The slice aliases d.Rows; treat it as
// immutable.
func (d *Dataset) DayRows(day int) []temporal.Row {
	lo := temporal.Time(day) * temporal.Day
	hi := lo + temporal.Day
	i := sort.Search(len(d.Rows), func(i int) bool { return d.Rows[i][0].AsInt() >= int64(lo) })
	j := sort.Search(len(d.Rows), func(j int) bool { return d.Rows[j][0].AsInt() >= int64(hi) })
	return d.Rows[i:j]
}

// AdByName finds an ad class by its name.
func (d *Dataset) AdByName(name string) (AdClass, bool) {
	for _, a := range d.Ads {
		if a.Name == name {
			return a, true
		}
	}
	return AdClass{}, false
}
