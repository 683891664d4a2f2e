package workload

import (
	"testing"

	"timr/internal/temporal"
)

func smallConfig() Config {
	return Config{
		Users: 300, Keywords: 500, AdClasses: 5, Days: 2, Seed: 7,
		BotFraction: 0.02,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("sizes differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if !a.Rows[i].Equal(b.Rows[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	a := Generate(cfg)
	cfg.Seed = 8
	b := Generate(cfg)
	if len(a.Rows) == len(b.Rows) {
		same := true
		for i := range a.Rows {
			if !a.Rows[i].Equal(b.Rows[i]) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical data")
		}
	}
}

func TestGenerateSortedAndInRange(t *testing.T) {
	d := Generate(smallConfig())
	if len(d.Rows) == 0 {
		t.Fatal("no rows")
	}
	var prev temporal.Time = -1
	for _, r := range d.Rows {
		tm := r[0].AsInt()
		if tm < prev {
			t.Fatal("rows not time-sorted")
		}
		prev = tm
		if tm < 0 || tm >= d.Horizon {
			t.Fatalf("timestamp %d outside horizon %d", tm, d.Horizon)
		}
		s := r[1].AsInt()
		if s != StreamImpression && s != StreamClick && s != StreamKeyword {
			t.Fatalf("bad stream id %d", s)
		}
		kwAd := r[3].AsInt()
		if s == StreamKeyword {
			if kwAd < 0 || kwAd >= int64(d.Cfg.Keywords) {
				t.Fatalf("keyword id %d out of range", kwAd)
			}
		} else if kwAd < AdIDBase {
			t.Fatalf("ad id %d below AdIDBase", kwAd)
		}
	}
}

func TestStreamComposition(t *testing.T) {
	d := Generate(smallConfig())
	count := func(stream int64) (n int) {
		for _, r := range d.Rows {
			if r[1].AsInt() == stream {
				n++
			}
		}
		return n
	}
	imp, clk, kw := count(StreamImpression), count(StreamClick), count(StreamKeyword)
	if imp == 0 || clk == 0 || kw == 0 {
		t.Fatalf("streams: imp=%d clk=%d kw=%d", imp, clk, kw)
	}
	if clk >= imp {
		t.Errorf("clicks (%d) must be rarer than impressions (%d)", clk, imp)
	}
	if kw <= imp {
		t.Errorf("searches (%d) should outnumber impressions (%d)", kw, imp)
	}
}

func TestClicksFollowImpressions(t *testing.T) {
	// Every click must have a same-user impression of the same ad at most
	// ~5 minutes earlier (required by GenTrainData's d=5min window).
	d := Generate(smallConfig())
	type key struct{ user, ad int64 }
	lastImp := map[key]temporal.Time{}
	for _, r := range d.Rows {
		k := key{r[2].AsInt(), r[3].AsInt()}
		switch r[1].AsInt() {
		case StreamImpression:
			lastImp[k] = r[0].AsInt()
		case StreamClick:
			ts, ok := lastImp[k]
			if !ok {
				t.Fatal("click without prior impression")
			}
			if gap := r[0].AsInt() - ts; gap < 0 || gap > 5*temporal.Minute {
				t.Fatalf("click %d away from impression", gap)
			}
		}
	}
}

func TestBotsAreHyperactive(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 500
	cfg.BotFraction = 0.02
	d := Generate(cfg)
	if len(d.Bots) == 0 {
		t.Fatal("no bots generated")
	}
	perUser := map[int64]int{}
	for _, r := range d.Rows {
		if r[1].AsInt() == StreamClick || r[1].AsInt() == StreamKeyword {
			perUser[r[2].AsInt()]++
		}
	}
	var botAvg, humanAvg float64
	var nb, nh int
	for u, n := range perUser {
		if d.Bots[u] {
			botAvg += float64(n)
			nb++
		} else {
			humanAvg += float64(n)
			nh++
		}
	}
	if nb == 0 || nh == 0 {
		t.Fatal("missing bot or human activity")
	}
	botAvg /= float64(nb)
	humanAvg /= float64(nh)
	if botAvg < 10*humanAvg {
		t.Errorf("bot activity %.1f not >> human %.1f", botAvg, humanAvg)
	}
}

func TestPlantedCorrelationVisible(t *testing.T) {
	// For the deodorant class, CTR among impressions preceded (within τ)
	// by a positive-keyword search must exceed the base CTR, and
	// negative-keyword CTR must be below it. This is the ground truth the
	// feature-selection experiments rely on.
	cfg := smallConfig()
	cfg.Users = 800
	cfg.Days = 3
	d := Generate(cfg)
	ad, ok := d.AdByName("deodorant")
	if !ok {
		t.Fatal("no deodorant class")
	}
	pos := map[int64]bool{}
	for _, k := range ad.Pos {
		pos[k] = true
	}
	neg := map[int64]bool{}
	for _, k := range ad.Neg {
		neg[k] = true
	}

	// Track recent searches per user.
	type search struct {
		t  temporal.Time
		kw int64
	}
	recent := map[int64][]search{}
	var posImp, posClk, negImp, negClk, allImp, allClk int
	pending := map[int64]int{} // user -> classification of last impression
	for _, r := range d.Rows {
		tm, s, u, ka := r[0].AsInt(), r[1].AsInt(), r[2].AsInt(), r[3].AsInt()
		if d.Bots[u] {
			continue
		}
		switch s {
		case StreamKeyword:
			recent[u] = append(recent[u], search{tm, ka})
		case StreamImpression:
			if ka != ad.ID {
				delete(pending, u)
				continue
			}
			hasPos, hasNeg := false, false
			rs := recent[u]
			for i := len(rs) - 1; i >= 0 && rs[i].t > tm-d.Cfg.Tau; i-- {
				if pos[rs[i].kw] {
					hasPos = true
				}
				if neg[rs[i].kw] {
					hasNeg = true
				}
			}
			allImp++
			cls := 0
			if hasPos && !hasNeg {
				posImp++
				cls = 1
			} else if hasNeg && !hasPos {
				negImp++
				cls = 2
			}
			pending[u] = cls
		case StreamClick:
			if ka != ad.ID {
				continue
			}
			allClk++
			switch pending[u] {
			case 1:
				posClk++
			case 2:
				negClk++
			}
		}
	}
	if posImp < 30 || negImp < 30 {
		t.Fatalf("too few classified impressions: pos=%d neg=%d", posImp, negImp)
	}
	base := float64(allClk) / float64(allImp)
	posCTR := float64(posClk) / float64(posImp)
	negCTR := float64(negClk) / float64(negImp)
	if posCTR <= 1.5*base {
		t.Errorf("positive-keyword CTR %.4f not lifted over base %.4f", posCTR, base)
	}
	if negCTR >= base {
		t.Errorf("negative-keyword CTR %.4f not dampened below base %.4f", negCTR, base)
	}
}

func TestSplitHalves(t *testing.T) {
	d := Generate(smallConfig())
	train, test := d.SplitHalves()
	if len(train) == 0 || len(test) == 0 {
		t.Fatal("empty split")
	}
	if len(train)+len(test) != len(d.Rows) {
		t.Fatal("split loses rows")
	}
	mid := d.Horizon / 2
	if train[len(train)-1][0].AsInt() >= mid || test[0][0].AsInt() < mid {
		t.Fatal("split not at time midpoint")
	}
}

func TestNamedKeywordsWired(t *testing.T) {
	d := Generate(smallConfig())
	ad, _ := d.AdByName("deodorant")
	found := false
	for _, k := range ad.Pos {
		if d.KeywordNames[k] == "icarly" {
			found = true
		}
	}
	if !found {
		t.Error("icarly must be a positive deodorant keyword (paper Example 2)")
	}
	// Popular irrelevant words must not be planted anywhere.
	for _, a := range d.Ads {
		for _, k := range append(append([]int64{}, a.Pos...), a.Neg...) {
			n := d.KeywordNames[k]
			for _, bad := range popularIrrelevant {
				if n == bad {
					t.Errorf("popular keyword %q planted in class %s", n, a.Name)
				}
			}
		}
	}
}

func TestDiurnalCycle(t *testing.T) {
	d := Generate(smallConfig())
	day := make([]int, 24)
	for _, r := range d.Rows {
		h := (r[0].AsInt() % temporal.Day) / temporal.Hour
		day[h]++
	}
	// Mid-day activity should clearly exceed the nightly trough.
	peak := day[12] + day[13] + day[14]
	trough := day[0] + day[1] + day[2]
	if peak <= trough {
		t.Errorf("no diurnal cycle: peak=%d trough=%d", peak, trough)
	}
}

func TestUnifiedSchemaShape(t *testing.T) {
	s := UnifiedSchema()
	want := []string{"Time", "StreamId", "UserId", "KwAdId"}
	for i, n := range want {
		if s.Field(i).Name != n {
			t.Errorf("field %d = %s", i, s.Field(i).Name)
		}
	}
}
