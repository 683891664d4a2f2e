package tsql

import (
	"strings"
	"testing"

	"timr/internal/temporal"
	"timr/internal/workload"
)

func catalog() Catalog {
	return Catalog{
		"events": workload.UnifiedSchema(),
		"clicks": temporal.NewSchema(
			temporal.Field{Name: "Time", Kind: temporal.KindInt},
			temporal.Field{Name: "UserId", Kind: temporal.KindInt},
			temporal.Field{Name: "AdId", Kind: temporal.KindInt},
		),
		"readings": temporal.NewSchema(
			temporal.Field{Name: "Time", Kind: temporal.KindInt},
			temporal.Field{Name: "ID", Kind: temporal.KindString},
			temporal.Field{Name: "Power", Kind: temporal.KindInt},
		),
		"scores": temporal.NewSchema(
			temporal.Field{Name: "AdId", Kind: temporal.KindInt},
			temporal.Field{Name: "Keyword", Kind: temporal.KindInt},
			temporal.Field{Name: "Z", Kind: temporal.KindFloat},
		),
	}
}

func compile(t *testing.T, sql string) *temporal.Plan {
	t.Helper()
	p, err := Compile(sql, catalog())
	if err != nil {
		t.Fatalf("%v\nquery: %s", err, sql)
	}
	return p
}

func run(t *testing.T, sql string, inputs map[string][]temporal.Event) []temporal.Event {
	t.Helper()
	out, err := temporal.RunPlan(compile(t, sql), inputs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func reading(tm temporal.Time, id string, power int64) temporal.Event {
	return temporal.PointEvent(tm, temporal.Row{temporal.Int(tm), temporal.String(id), temporal.Int(power)})
}

func click(tm temporal.Time, user, ad int64) temporal.Event {
	return temporal.PointEvent(tm, temporal.Row{temporal.Int(tm), temporal.Int(user), temporal.Int(ad)})
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex("SELECT a.b, COUNT(*) FROM s WHERE x >= 1.5 -- comment\nAND y = 'hi' WINDOW 6h")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Fatal("missing EOF")
	}
	// Spot checks.
	has := func(kind tokenKind, text string) bool {
		for _, tk := range toks {
			if tk.kind == kind && tk.text == text {
				return true
			}
		}
		return false
	}
	if !has(tokKeyword, "SELECT") || !has(tokKeyword, "COUNT") {
		t.Error("keywords")
	}
	if !has(tokNumber, "1.5") || !has(tokString, "hi") || !has(tokDuration, "6h") {
		t.Error("literals")
	}
	if !has(tokIdent, "a") || !has(tokSymbol, ".") {
		t.Error("qualified ref")
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string must fail")
	}
	if _, err := lex("SELECT #"); err == nil {
		t.Error("bad character must fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM s WHERE",
		"SELECT * FROM s GROUP x",
		"SELECT SUM(*) FROM s",
		"SELECT * FROM s WINDOW fish",
		"SELECT * FROM s trailing junk",
		"SELECT a FROM s JOIN t",
		"SELECT a FROM s HAVING a > ",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected parse error for %q", q)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"SELECT * FROM nosuch",
		"SELECT nope FROM clicks",
		"SELECT COUNT(*) AS a, SUM(AdId) AS b FROM clicks",  // two aggregates
		"SELECT AdId FROM clicks GROUP BY AdId",             // group without aggregate
		"SELECT AdId FROM clicks HAVING AdId > 1",           // having without aggregate
		"SELECT UserId FROM clicks WHERE UserId = 'str'",    // type mismatch
		"SELECT x.UserId FROM clicks",                       // unknown alias
		"SELECT * FROM clicks UNION SELECT * FROM readings", // union schema mismatch
		"SELECT * FROM clicks PARTITION BY Nope",            // bad partition col
		"SELECT l.AdId FROM clicks AS l JOIN readings AS r ON l.AdId = r.Nope",
	}
	for _, q := range bad {
		if _, err := Compile(q, catalog()); err == nil {
			t.Errorf("expected compile error for %q", q)
		}
	}
}

func TestSelectWhereProject(t *testing.T) {
	out := run(t, "SELECT ID, Power AS P FROM readings WHERE Power > 0",
		map[string][]temporal.Event{"readings": {
			reading(1, "a", 0), reading(2, "b", 5),
		}})
	if len(out) != 1 || out[0].Payload[0].AsString() != "b" || out[0].Payload[1].AsInt() != 5 {
		t.Fatalf("out = %v", out)
	}
}

func TestWindowedCountSQL(t *testing.T) {
	// Paper Figure 3 in SQL form.
	out := run(t, "SELECT COUNT(*) AS Cnt FROM readings WHERE Power > 0 WINDOW 3ms",
		map[string][]temporal.Event{"readings": {
			reading(1, "m", 10), reading(2, "m", 0), reading(3, "m", 7),
		}})
	want := []temporal.Event{
		{LE: 1, RE: 3, Payload: temporal.Row{temporal.Int(1)}},
		{LE: 3, RE: 4, Payload: temporal.Row{temporal.Int(2)}},
		{LE: 4, RE: 6, Payload: temporal.Row{temporal.Int(1)}},
	}
	if !temporal.EventsEqual(out, want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
}

func TestGroupByEqualsBuilder(t *testing.T) {
	// RunningClickCount in SQL must equal the builder version.
	sql := "SELECT AdId, COUNT(*) AS ClickCount FROM clicks GROUP BY AdId WINDOW 50ms"
	events := []temporal.Event{
		click(1, 1, 7), click(5, 2, 7), click(9, 3, 8), click(60, 4, 7),
	}
	got := run(t, sql, map[string][]temporal.Event{"clicks": events})

	builder := temporal.Scan("clicks", catalog()["clicks"]).
		GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(50).Count("ClickCount")
		})
	want, err := temporal.RunPlan(builder, map[string][]temporal.Event{"clicks": events})
	if err != nil {
		t.Fatal(err)
	}
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("SQL %v != builder %v", got, want)
	}
}

func TestHavingFiltersAggregates(t *testing.T) {
	sql := "SELECT AdId, COUNT(*) AS C FROM clicks GROUP BY AdId WINDOW 100ms HAVING C > 1"
	out := run(t, sql, map[string][]temporal.Event{"clicks": {
		click(1, 1, 7), click(2, 2, 7), click(3, 3, 8),
	}})
	for _, e := range out {
		if e.Payload[1].AsInt() <= 1 {
			t.Fatalf("HAVING leaked %v", e)
		}
		if e.Payload[0].AsInt() != 7 {
			t.Fatalf("wrong group %v", e)
		}
	}
	if len(out) == 0 {
		t.Fatal("no output")
	}
}

func TestHoppingWindowSQL(t *testing.T) {
	sql := "SELECT COUNT(*) AS C FROM clicks WINDOW 4ms HOP 2ms"
	out := run(t, sql, map[string][]temporal.Event{"clicks": {
		click(1, 1, 7), click(2, 1, 7), click(5, 1, 7),
	}})
	want := []temporal.Event{
		{LE: 2, RE: 4, Payload: temporal.Row{temporal.Int(1)}},
		{LE: 4, RE: 8, Payload: temporal.Row{temporal.Int(2)}},
		{LE: 8, RE: 10, Payload: temporal.Row{temporal.Int(1)}},
	}
	if !temporal.EventsEqual(out, want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
}

func TestJoinWithAliases(t *testing.T) {
	sql := `SELECT l.UserId, r.Power
	        FROM clicks AS l
	        JOIN readings AS r WINDOW 10ms ON l.Time = r.Time`
	_ = sql
	// Simpler: join on user/id is not type-compatible across catalogs, so
	// join clicks with clicks via subquery alias.
	sql2 := `SELECT l.UserId, r.UserId AS Other
	         FROM clicks AS l
	         JOIN (SELECT * FROM clicks WINDOW 10ms) AS r ON l.AdId = r.AdId`
	out := run(t, sql2, map[string][]temporal.Event{"clicks": {
		click(1, 100, 7), click(5, 200, 7), click(50, 300, 7),
	}})
	// Pairs within 10ms on the same ad: (5,(1)) joins, (1,(1)) self at
	// same instant, etc. Just require the (200,100) pairing present.
	found := false
	for _, e := range out {
		if e.Payload[0].AsInt() == 200 && e.Payload[1].AsInt() == 100 {
			found = true
		}
		if e.Payload[0].AsInt() == 300 && e.Payload[1].AsInt() == 100 {
			t.Fatalf("expired join result: %v", e)
		}
	}
	if !found {
		t.Fatalf("missing expected join pair: %v", out)
	}
}

func TestAntiJoinSQL(t *testing.T) {
	// Bot-elimination shape: drop clicks by flagged users.
	sql := `SELECT *
	        FROM clicks AS c
	        ANTIJOIN (SELECT UserId, COUNT(*) AS N FROM clicks GROUP BY UserId WINDOW 100ms HAVING N > 2) AS bots
	        ON c.UserId = bots.UserId`
	out := run(t, sql, map[string][]temporal.Event{"clicks": {
		click(1, 9, 7), click(2, 9, 7), click(3, 9, 7), click(4, 9, 7), // user 9: flagged after 3rd
		click(3, 5, 8), // normal user
	}})
	for _, e := range out {
		if e.Payload[1].AsInt() == 9 && e.LE == 4 {
			t.Fatalf("flagged user's later click survived: %v", out)
		}
	}
	var normal int
	for _, e := range out {
		if e.Payload[1].AsInt() == 5 {
			normal++
		}
	}
	if normal != 1 {
		t.Fatalf("normal user lost events: %v", out)
	}
}

func TestUnionSQL(t *testing.T) {
	sql := `SELECT UserId FROM clicks WHERE AdId = 7
	        UNION
	        SELECT UserId FROM clicks WHERE AdId = 8`
	out := run(t, sql, map[string][]temporal.Event{"clicks": {
		click(1, 1, 7), click(2, 2, 8), click(3, 3, 9),
	}})
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
}

func TestSourceLifetimeClauses(t *testing.T) {
	// SHIFT and POINT on a source.
	sql := "SELECT * FROM clicks WINDOW 5ms SHIFT -5ms"
	plan := compile(t, sql)
	found := 0
	plan.Walk(func(n *temporal.Plan) {
		if n.Kind == temporal.OpAlterLifetime {
			found++
		}
	})
	if found != 2 {
		t.Fatalf("expected window+shift lifetime ops, found %d", found)
	}
	if compile(t, "SELECT * FROM clicks WINDOW 10ms POINT").MaxWindow() == 0 {
		t.Fatal("window lost")
	}
}

func TestAbsHavingOnFloats(t *testing.T) {
	sql := "SELECT Keyword FROM scores WHERE ABS(Z) >= 1.96"
	out := run(t, sql, map[string][]temporal.Event{"scores": {
		temporal.PointEvent(1, temporal.Row{temporal.Int(1), temporal.Int(10), temporal.Float(2.5)}),
		temporal.PointEvent(2, temporal.Row{temporal.Int(1), temporal.Int(11), temporal.Float(-3.0)}),
		temporal.PointEvent(3, temporal.Row{temporal.Int(1), temporal.Int(12), temporal.Float(0.4)}),
	}})
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
}

func TestPartitionByAnnotation(t *testing.T) {
	plan := compile(t, "SELECT AdId, COUNT(*) AS C FROM clicks GROUP BY AdId WINDOW 1h PARTITION BY AdId")
	exchanges := 0
	plan.Walk(func(n *temporal.Plan) {
		if n.Kind == temporal.OpExchange {
			exchanges++
			if n.Part.String() != "{AdId}" {
				t.Errorf("exchange key = %s", n.Part)
			}
		}
	})
	if exchanges != 1 {
		t.Fatalf("exchanges = %d", exchanges)
	}
}

func TestBotElimInPureSQL(t *testing.T) {
	// The full Figure-11 bot-elimination query in StreamSQL, matching the
	// builder plan's results on generated data.
	sql := `SELECT *
	FROM events AS e
	ANTIJOIN (
	    SELECT UserId, COUNT(*) AS Cnt FROM events WHERE StreamId = 1
	    GROUP BY UserId WINDOW 6h HOP 15m HAVING Cnt > 40
	  UNION
	    SELECT UserId, COUNT(*) AS Cnt FROM events WHERE StreamId = 2
	    GROUP BY UserId WINDOW 6h HOP 15m HAVING Cnt > 80
	) AS bots
	ON e.UserId = bots.UserId
	PARTITION BY UserId`
	plan := compile(t, sql)

	d := workload.Generate(workload.Config{Users: 200, Days: 1, Seed: 2, BotFraction: 0.02})
	got, err := temporal.RunPlan(plan, map[string][]temporal.Event{"events": d.Events()})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(d.Rows) {
		t.Fatalf("kept %d of %d — bot elimination did nothing or everything", len(got), len(d.Rows))
	}
	// Sanity: bots lose events, humans don't.
	kept := map[int64]int{}
	total := map[int64]int{}
	for _, e := range got {
		kept[e.Payload[2].AsInt()]++
	}
	for _, r := range d.Rows {
		total[r[2].AsInt()]++
	}
	for u := range d.Bots {
		if kept[u] >= total[u] {
			t.Errorf("bot %d kept all %d events", u, total[u])
		}
	}
}

func TestParseDurationText(t *testing.T) {
	cases := map[string]temporal.Time{
		"500ms": 500,
		"30s":   30 * temporal.Second,
		"15m":   15 * temporal.Minute,
		"6h":    6 * temporal.Hour,
		"2d":    2 * temporal.Day,
		"-5m":   -5 * temporal.Minute,
	}
	for in, want := range cases {
		got, err := parseDurationText(in)
		if err != nil || got != want {
			t.Errorf("parseDurationText(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseDurationText("xh"); err == nil {
		t.Error("bad duration must fail")
	}
}

func TestPlanStringRendering(t *testing.T) {
	plan := compile(t, "SELECT AdId, COUNT(*) AS C FROM clicks GROUP BY AdId WINDOW 1h")
	s := plan.String()
	if !strings.Contains(s, "GroupApply[AdId]") {
		t.Errorf("plan: %s", s)
	}
}

func TestMoreCompileErrors(t *testing.T) {
	bad := []string{
		"SELECT AdId FROM clicks WHERE ABS(UserId) = 'x'",                     // ABS vs string literal
		"SELECT Z FROM scores WHERE ABS(AdId) > 1 UNION SELECT Z FROM scores", // fine ABS int... make bad below
		"SELECT MIN(Nope) AS M FROM clicks",                                   // unknown agg column
		"SELECT l.Nope FROM clicks AS l",                                      // unknown column via alias
		"SELECT UserId FROM (SELECT UserId FROM nosuch) AS s",                 // error inside subquery
	}
	for _, q := range bad[2:] {
		if _, err := Compile(q, catalog()); err == nil {
			t.Errorf("expected compile error for %q", q)
		}
	}
	if _, err := Compile(bad[0], catalog()); err == nil {
		t.Errorf("expected compile error for %q", bad[0])
	}
}

func TestAggAliasDefaultsToAggName(t *testing.T) {
	out := run(t, "SELECT AdId, COUNT(*) FROM clicks GROUP BY AdId WINDOW 10ms",
		map[string][]temporal.Event{"clicks": {click(1, 1, 7)}})
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	plan := compile(t, "SELECT AdId, COUNT(*) FROM clicks GROUP BY AdId WINDOW 10ms")
	if !plan.Schema().Has("COUNT") {
		t.Errorf("schema = %s", plan.Schema())
	}
}

func TestGlobalAggregatesAllKinds(t *testing.T) {
	in := map[string][]temporal.Event{"clicks": {
		click(1, 10, 7), click(2, 20, 7),
	}}
	cases := map[string]string{
		"SELECT SUM(UserId) AS S FROM clicks WINDOW 10ms": "30",
		"SELECT MIN(UserId) AS S FROM clicks WINDOW 10ms": "10",
		"SELECT MAX(UserId) AS S FROM clicks WINDOW 10ms": "20",
		"SELECT AVG(UserId) AS S FROM clicks WINDOW 10ms": "15",
	}
	for sql, want := range cases {
		out := run(t, sql, in)
		found := false
		for _, e := range out {
			if e.Contains(2) {
				found = true
				if e.Payload[0].String() != want {
					t.Errorf("%s => %s, want %s", sql, e.Payload[0], want)
				}
			}
		}
		if !found {
			t.Errorf("%s: no snapshot at t=2", sql)
		}
	}
}

func TestNotAndBoolLiterals(t *testing.T) {
	out := run(t, "SELECT * FROM clicks WHERE NOT (UserId < 100 OR UserId > 300)",
		map[string][]temporal.Event{"clicks": {
			click(1, 50, 7), click(2, 200, 7), click(3, 400, 7),
		}})
	if len(out) != 1 || out[0].Payload[1].AsInt() != 200 {
		t.Fatalf("out = %v", out)
	}
	// TRUE/FALSE literal parse path (bool columns are rare; just parse).
	if _, err := Parse("SELECT * FROM s WHERE x = TRUE"); err != nil {
		t.Error(err)
	}
}

func TestDurationLiteralInComparison(t *testing.T) {
	out := run(t, "SELECT * FROM clicks WHERE Time >= 1m",
		map[string][]temporal.Event{"clicks": {
			click(30*temporal.Second, 1, 7), click(2*temporal.Minute, 2, 7),
		}})
	if len(out) != 1 || out[0].Payload[1].AsInt() != 2 {
		t.Fatalf("out = %v", out)
	}
}

// TestCompileRejectsWhatBuildersRefuse: a query the plan builders would
// panic on is a compile error that names the offending column or window.
func TestCompileRejectsWhatBuildersRefuse(t *testing.T) {
	for q, want := range map[string]string{
		"SELECT UserId, UserId FROM clicks":                                                 `duplicate column "UserId"`,
		"SELECT AdId AS C, COUNT(*) AS C FROM clicks GROUP BY AdId":                         `duplicate column "C"`,
		"SELECT AdId, COUNT(*) AS AdId FROM clicks GROUP BY AdId":                           `duplicate column "AdId"`,
		"SELECT AdId, COUNT(*) AS C FROM clicks GROUP BY AdId, AdId":                        `duplicate column "AdId"`,
		"SELECT COUNT(*) AS C FROM clicks WINDOW 1m HOP 0":                                  "WINDOW 1m0s HOP 0s",
		"SELECT * FROM clicks WINDOW -5ms":                                                  "WINDOW -5ms",
		"SELECT * FROM (SELECT * FROM clicks) AS c WINDOW 1h HOP -1m":                       "WINDOW 1h0m0s HOP -1m0s",
		"SELECT l.AdId FROM clicks AS l JOIN clicks AS r WINDOW 0 HOP 1 ON l.AdId = r.AdId": "WINDOW 0s HOP 1ms",
	} {
		_, err := Compile(q, catalog())
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one naming %s", q, err, want)
		}
	}
}

// FuzzCompile: Compile returns a plan or an error for any input, and never
// panics.
func FuzzCompile(f *testing.F) {
	for _, q := range []string{
		"SELECT UserId, UserId FROM clicks",
		"SELECT COUNT(*) AS C FROM clicks WINDOW 1m HOP 0",
		"SELECT a.b, COUNT(*) FROM s WHERE x >= 1.5 -- comment\nAND y = 'hi' WINDOW 6h",
		"SELECT COUNT(*) AS Cnt FROM readings WHERE Power > 0 WINDOW 3ms",
		"SELECT AdId, COUNT(*) AS ClickCount FROM clicks GROUP BY AdId WINDOW 50ms",
		"SELECT AdId, COUNT(*) AS C FROM clicks GROUP BY AdId WINDOW 100ms HAVING C > 1",
		"SELECT COUNT(*) AS C FROM clicks WINDOW 4ms HOP 2ms",
		"SELECT l.ID, r.Power FROM readings AS l JOIN readings AS r WINDOW 10ms ON l.Time = r.Time",
		"SELECT l.UserId FROM clicks AS l JOIN (SELECT * FROM clicks WINDOW 10ms) AS r ON l.AdId = r.AdId",
		"SELECT * FROM events ANTIJOIN (SELECT UserId, COUNT(*) AS N FROM clicks GROUP BY UserId WINDOW 100ms HAVING N > 2) AS bots ON UserId = bots.UserId",
		"SELECT * FROM clicks UNION SELECT * FROM clicks",
		"SELECT * FROM clicks WINDOW 5ms SHIFT -5ms",
		"SELECT * FROM clicks WINDOW 10ms POINT",
		"SELECT AdId, Keyword FROM scores WHERE ABS(Z) >= 1.28",
		"SELECT AdId, COUNT(*) AS C FROM clicks GROUP BY AdId WINDOW 1h PARTITION BY AdId",
		"SELECT UserId, COUNT(*) AS Cnt FROM events WHERE StreamId = 1 GROUP BY UserId WINDOW 6h HOP 15m HAVING Cnt > 40",
		"SELECT SUM(UserId) AS S FROM clicks WINDOW 10ms",
		"SELECT AVG(UserId) AS S FROM clicks WINDOW 10ms",
		"SELECT ID FROM readings WHERE NOT (Power < 3 OR ID = 'a') AND TRUE",
		"SELECT * FROM clicks WHERE Time >= 2h",
		"SELECT AdId FROM clicks WHERE ABS(UserId) = 'x'",
		"SELECT UserId FROM (SELECT UserId FROM nosuch) AS s",
		"SELECT * FROM clicks PARTITION BY Nope",
	} {
		f.Add(q)
	}
	cat := catalog()
	f.Fuzz(func(t *testing.T, q string) {
		if p, err := Compile(q, cat); (p == nil) == (err == nil) {
			t.Fatalf("Compile(%q) = %v, %v: want exactly one of a plan and an error", q, p, err)
		}
	})
}
