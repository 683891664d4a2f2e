package bt

import (
	"encoding/json"
	"fmt"
	"sort"

	"timr/internal/ml"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// Durable state of the incremental BT refresher: everything one ingest
// needs from all previous ingests. The encoding is a sequence of
// CRC-framed sections (temporal.AppendFrame — the same framing the
// checkpoint store uses), so a torn or bit-flipped persisted state
// fails section decode instead of resurrecting a half-merged summary.

// WindowModel is one per-(window, ad) LR model in the refresher's
// cache. Frozen windows — those fully below the watermark — never
// change again, so their models are trained once and reused verbatim;
// partial windows are retrained every ingest.
type WindowModel struct {
	Win    int64
	Ad     int64
	Frozen bool
	Model  *ml.Model
}

// StageTiming is the refresher's newest observation of one stage's
// cost: in-memory instrumentation only. Wall-clock measurements vary
// run to run, so timings are not part of the encoded state.
type StageTiming struct {
	Stage string
	Rows  int64
	Ns    int64
}

// RefreshState is the complete refresher state after some number of
// ingested days.
type RefreshState struct {
	P   Params
	Cfg workload.Config // the workload that produced the log (CLI resume)

	Days      int           // days ingested
	RawRows   int64         // total raw rows ever ingested
	Watermark temporal.Time // F: rows with Time < F are final

	// TailRaw retains the raw rows with Time >= F - Lookback(P): exactly
	// the history the next delta ingest's front-stage window needs.
	TailRaw []temporal.Row

	// Finalized front-stage output (Time < F), canonically sorted.
	Labeled []temporal.Row
	Train   []temporal.Row

	Counts *CountSummary

	// Models holds frozen and partial window models, sorted (Win, Ad).
	Models []WindowModel

	Timings []StageTiming
}

// NewRefreshState returns the empty state before any ingest.
func NewRefreshState(p Params, cfg workload.Config) *RefreshState {
	return &RefreshState{P: p, Cfg: cfg, Counts: NewCountSummary()}
}

// Lookback is the raw-history horizon L the delta path must retain
// behind the watermark: bot windows compound with the UBP lookback
// (2τ + BotHop) and the non-click detector reaches d forward from rows
// up to d before the watermark (2d total).
func Lookback(p Params) temporal.Time {
	return 2*p.Tau + p.BotHop + 2*p.D
}

// Observation returns the newest recorded timing for a stage
// (zero-valued when never observed).
func (st *RefreshState) Observation(stage string) StageTiming {
	for _, t := range st.Timings {
		if t.Stage == stage {
			return t
		}
	}
	return StageTiming{}
}

// RecordTiming replaces the stage's observation with a newer one.
func (st *RefreshState) RecordTiming(stage string, rows, ns int64) {
	for i := range st.Timings {
		if st.Timings[i].Stage == stage {
			st.Timings[i] = StageTiming{Stage: stage, Rows: rows, Ns: ns}
			return
		}
	}
	st.Timings = append(st.Timings, StageTiming{Stage: stage, Rows: rows, Ns: ns})
}

const (
	tagRefreshHeader byte = 0x52 // 'R'
	tagRowSection    byte = 0x72 // 'r'
	tagModelSection  byte = 0x6D // 'm'
	refreshVersion        = 2    // 1 carried model areas and stage timings
)

func encodeRowSection(w *temporal.Encoder, rows []temporal.Row) {
	w.Byte(tagRowSection)
	w.Uvarint(uint64(len(rows)))
	for _, r := range rows {
		w.Row(r)
	}
}

func decodeRowSection(r *temporal.Decoder, what string) ([]temporal.Row, error) {
	if err := r.Expect(tagRowSection, what); err != nil {
		return nil, err
	}
	n := r.Count(what)
	rows := make([]temporal.Row, 0, n)
	for i := 0; i < n; i++ {
		row := r.Row()
		if r.Err() != nil {
			return nil, r.Err()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// appendSection encodes one state section and appends it as a CRC frame.
func appendSection(dst []byte, fn func(w *temporal.Encoder)) []byte {
	var w temporal.Encoder
	fn(&w)
	return temporal.AppendFrame(dst, w.Bytes())
}

// SummaryBytes serializes the refresher's state: the payload each
// ingest persists, and the canonical digest the full-vs-delta drills
// compare — two refresh paths are equivalent iff their SummaryBytes are
// byte-identical.
func (st *RefreshState) SummaryBytes() ([]byte, error) {
	pj, err := json.Marshal(st.P)
	if err != nil {
		return nil, fmt.Errorf("bt: encode refresh params: %w", err)
	}
	cj, err := json.Marshal(st.Cfg)
	if err != nil {
		return nil, fmt.Errorf("bt: encode refresh workload config: %w", err)
	}
	var out []byte
	out = appendSection(out, func(w *temporal.Encoder) {
		w.Byte(tagRefreshHeader)
		w.Uvarint(refreshVersion)
		w.Uvarint(uint64(st.Days))
		w.Uvarint(uint64(st.RawRows))
		w.Varint(int64(st.Watermark))
		w.BytesField(pj)
		w.BytesField(cj)
	})
	out = appendSection(out, func(w *temporal.Encoder) { encodeRowSection(w, st.TailRaw) })
	out = appendSection(out, func(w *temporal.Encoder) { encodeRowSection(w, st.Labeled) })
	out = appendSection(out, func(w *temporal.Encoder) { encodeRowSection(w, st.Train) })
	out = appendSection(out, func(w *temporal.Encoder) { st.Counts.encode(w) })
	out = appendSection(out, func(w *temporal.Encoder) {
		w.Byte(tagModelSection)
		w.Uvarint(uint64(len(st.Models)))
		for _, m := range st.Models {
			w.Varint(m.Win)
			w.Varint(m.Ad)
			w.Bool(m.Frozen)
			m.Model.Snapshot(w)
		}
	})
	return out, nil
}

// takeSection pops one CRC frame off data and returns a decoder over it.
func takeSection(data []byte, what string) (*temporal.Decoder, []byte, error) {
	payload, rest, err := temporal.DecodeFrame(data)
	if err != nil {
		return nil, nil, fmt.Errorf("bt: refresh state %s section: %w", what, err)
	}
	return temporal.NewDecoder(payload), rest, nil
}

func sectionDone(r *temporal.Decoder, what string) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("bt: refresh state %s section: %w", what, err)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("bt: refresh state %s section: %w", what, err)
	}
	return nil
}

// DecodeState parses a persisted refresh state (SummaryBytes output).
// A state of another version and trailing bytes are errors.
func DecodeState(data []byte) (*RefreshState, error) {
	st := &RefreshState{}

	r, rest, err := takeSection(data, "header")
	if err != nil {
		return nil, err
	}
	if err := r.Expect(tagRefreshHeader, "refresh state header"); err != nil {
		return nil, err
	}
	if v := r.Uvarint(); r.Err() == nil && v != refreshVersion {
		return nil, fmt.Errorf("bt: refresh state is version %d, this build reads version %d", v, refreshVersion)
	}
	st.Days = int(r.Uvarint())
	st.RawRows = int64(r.Uvarint())
	st.Watermark = temporal.Time(r.Varint())
	pj := append([]byte(nil), r.BytesField()...)
	cj := append([]byte(nil), r.BytesField()...)
	if err := sectionDone(r, "header"); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(pj, &st.P); err != nil {
		return nil, fmt.Errorf("bt: refresh state params: %w", err)
	}
	if err := json.Unmarshal(cj, &st.Cfg); err != nil {
		return nil, fmt.Errorf("bt: refresh state workload config: %w", err)
	}

	for _, sec := range []struct {
		what string
		dst  *[]temporal.Row
	}{{"tail-raw", &st.TailRaw}, {"labeled", &st.Labeled}, {"train", &st.Train}} {
		r, rest, err = takeSection(rest, sec.what)
		if err != nil {
			return nil, err
		}
		rows, err := decodeRowSection(r, sec.what+" rows")
		if err != nil {
			return nil, fmt.Errorf("bt: refresh state %s section: %w", sec.what, err)
		}
		if err := sectionDone(r, sec.what); err != nil {
			return nil, err
		}
		*sec.dst = rows
	}

	r, rest, err = takeSection(rest, "counts")
	if err != nil {
		return nil, err
	}
	if st.Counts, err = decodeCountSummary(r); err != nil {
		return nil, fmt.Errorf("bt: refresh state counts section: %w", err)
	}
	if err := sectionDone(r, "counts"); err != nil {
		return nil, err
	}

	r, rest, err = takeSection(rest, "models")
	if err != nil {
		return nil, err
	}
	if err := r.Expect(tagModelSection, "refresh model section"); err != nil {
		return nil, err
	}
	nm := r.Count("window models")
	for i := 0; i < nm; i++ {
		wm := WindowModel{Win: r.Varint(), Ad: r.Varint(), Frozen: r.Bool()}
		if r.Err() != nil {
			return nil, fmt.Errorf("bt: refresh state models section: %w", r.Err())
		}
		m, err := ml.RestoreModel(r)
		if err != nil {
			return nil, fmt.Errorf("bt: refresh state model %d: %w", i, err)
		}
		wm.Model = m
		st.Models = append(st.Models, wm)
	}
	if err := sectionDone(r, "models"); err != nil {
		return nil, err
	}
	if !sort.SliceIsSorted(st.Models, func(i, j int) bool {
		if st.Models[i].Win != st.Models[j].Win {
			return st.Models[i].Win < st.Models[j].Win
		}
		return st.Models[i].Ad < st.Models[j].Ad
	}) {
		return nil, fmt.Errorf("bt: refresh state models section: entries not sorted")
	}

	if len(rest) > 0 {
		return nil, fmt.Errorf("bt: refresh state: %d trailing bytes", len(rest))
	}
	if st.Counts == nil {
		st.Counts = NewCountSummary()
	}
	return st, nil
}
