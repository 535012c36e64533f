package experiments

import (
	"fmt"
	"time"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/gp"
	"dpreverser/internal/ocr"
	"dpreverser/internal/oracle"
	"dpreverser/internal/regress"
	"dpreverser/internal/reverser"
	"dpreverser/internal/sim"
	"dpreverser/internal/vehicle"
)

// --- Table 4: OCR precision per diagnostic tool ---

// Table4Row mirrors one row of Table 4.
type Table4Row struct {
	Tool      string
	TotalPics int
	Correct   int
}

// Precision reports the fraction of clean frames.
func (r Table4Row) Precision() float64 {
	if r.TotalPics == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.TotalPics)
}

// Table4 records 500 screenshots of a high-quality handheld (AUTEL 919 on
// Car L) and a low-quality one (LAUNCH X431 on Car A) and measures OCR
// frame precision.
func Table4(opt Options) ([]Table4Row, error) {
	const pics = 500
	cases := []struct {
		car  string
		tool string
		err  float64
	}{
		{"Car L", "AUTEL 919", ocr.HighQualityValueErr},
		{"Car A", "LAUNCH X431", ocr.LowQualityValueErr},
	}
	var rows []Table4Row
	for ci, c := range cases {
		p, ok := vehicle.ProfileByCar(c.car)
		if !ok {
			return nil, fmt.Errorf("table 4: unknown car %s", c.car)
		}
		clock := sim.NewClock(0)
		tool, veh, err := diagtool.ForProfile(p, clock)
		if err != nil {
			return nil, err
		}
		// Reach a live screen showing ~10 values, then film 500 frames.
		tool.ClickWidget("home.diag")
		tool.ClickWidget("ecu.0")
		tool.ClickWidget("func.stream")
		tool.SelectAllOnECU()
		tool.ClickWidget("sel.ok")
		engine := ocr.NewEngine(c.err, opt.Seed+int64(ci)*17+3)
		for i := 0; i < pics; i++ {
			tool.Poll()
			clock.Advance(500 * time.Millisecond)
			engine.Recognize(tool.Screen(), clock.Now())
		}
		_, corrupted := engine.Stats()
		rows = append(rows, Table4Row{Tool: c.tool, TotalPics: pics, Correct: pics - corrupted})
		tool.Close()
		veh.Close()
	}
	return rows, nil
}

// Table4Markdown renders Table 4.
func Table4Markdown(rows []Table4Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Tool, fmt.Sprint(r.TotalPics), fmt.Sprint(r.Correct), pct(r.Correct, r.TotalPics)}
	}
	return markdownTable([]string{"Diagnostic Tool", "#Total Pics", "#Correct Pics", "Precision"}, out)
}

// --- Table 5: OBD-II formula recovery ---

// Table5Row mirrors one row of Table 5.
type Table5Row struct {
	ESV          string
	Request      string
	GroundTruth  string
	SystemOutput string
	Correct      bool
}

// Table5 reverse engineers the seven standard OBD-II formulas and scores
// them against SAE J1979 — the experiment with perfect ground truth.
func Table5(run *CarRun) []Table5Row {
	var rows []Table5Row
	byKey := map[reverser.StreamKey]reverser.StreamData{}
	for _, sd := range run.Streams {
		byKey[sd.Key] = sd
	}
	for _, esv := range run.Result.ESVs {
		if esv.Key.Proto != "OBD" {
			continue
		}
		truth, ok := TruthFor(run.Vehicle, esv.Key)
		if !ok {
			continue
		}
		sd := byKey[esv.Key]
		correct := false
		if sd.Dataset != nil {
			correct = FormulaCorrect(esv.Formula, truth, sd.Dataset.X)
		}
		rows = append(rows, Table5Row{
			ESV:          esv.Label,
			Request:      fmt.Sprintf("01 %02X", byte(esv.Key.DID)),
			GroundTruth:  truth.Expr,
			SystemOutput: esv.FormulaString(),
			Correct:      correct,
		})
	}
	return rows
}

// Table5Markdown renders Table 5.
func Table5Markdown(rows []Table5Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		ok := "✓"
		if !r.Correct {
			ok = "✗"
		}
		out[i] = []string{r.ESV, r.Request, r.GroundTruth, r.SystemOutput, ok}
	}
	return markdownTable([]string{"ESV", "Request", "Formula (ground truth)", "Formula (system output)", "Correct"}, out)
}

// --- Tables 6 and 10: per-car inference precision, GP vs baselines ---

// PrecisionRow carries per-car inference results for one algorithm set
// (Table 6's GP column plus Table 10's baseline columns).
type PrecisionRow struct {
	Car string
	// FormulaESVs is the number of formula-bearing streams recovered.
	FormulaESVs int
	// CorrectGP / CorrectLinear / CorrectPoly count formulas equivalent to
	// ground truth per algorithm on the observed rows.
	CorrectGP     int
	CorrectLinear int
	CorrectPoly   int
	// DomainGP counts GP formulas that also decode like the ground truth
	// over the stream's whole raw domain (oracle.DomainCorrect).
	DomainGP int
	// EnumESVs is the number of no-formula streams (Table 6 last column).
	EnumESVs int
}

// Precision computes the per-car and total precision rows: every non-enum,
// non-OBD stream is inferred by GP (already in the run), then the same
// datasets go through linear regression and degree-2 polynomial fitting.
func Precision(runs []*CarRun) []PrecisionRow {
	var rows []PrecisionRow
	for _, run := range runs {
		row := PrecisionRow{Car: run.Profile.Car}
		byKey := map[reverser.StreamKey]reverser.StreamData{}
		for _, sd := range run.Streams {
			byKey[sd.Key] = sd
		}
		for _, esv := range run.Result.ESVs {
			if esv.Key.Proto == "OBD" {
				continue
			}
			if esv.Enum {
				row.EnumESVs++
				continue
			}
			sd := byKey[esv.Key]
			truth, ok := TruthFor(run.Vehicle, esv.Key)
			if !ok || sd.Dataset == nil {
				row.FormulaESVs++
				continue
			}
			row.FormulaESVs++
			if FormulaCorrect(esv.Formula, truth, sd.Dataset.X) {
				row.CorrectGP++
			}
			if oracle.DomainCorrect(esv.Formula, truth.Decode, sd.Dataset.X) {
				row.DomainGP++
			}
			// Baselines fit the raw pairs — the two-stage filtering and
			// median aggregation are DP-Reverser's own machinery (§3.3),
			// not the LibreCAN-style comparison points (§4.4 attributes
			// their failures to exactly this missing robustness).
			baseline := sd.RawDataset
			if baseline == nil {
				baseline = sd.Dataset
			}
			if lr, err := regress.LinearFit(baseline); err == nil &&
				FormulaCorrect(lr.Tree, truth, sd.Dataset.X) {
				row.CorrectLinear++
			}
			if pf, err := regress.PolyFit(baseline, 2); err == nil &&
				FormulaCorrect(pf.Tree, truth, sd.Dataset.X) {
				row.CorrectPoly++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// PrecisionTotals sums precision rows.
func PrecisionTotals(rows []PrecisionRow) PrecisionRow {
	total := PrecisionRow{Car: "Total"}
	for _, r := range rows {
		total.FormulaESVs += r.FormulaESVs
		total.CorrectGP += r.CorrectGP
		total.DomainGP += r.DomainGP
		total.CorrectLinear += r.CorrectLinear
		total.CorrectPoly += r.CorrectPoly
		total.EnumESVs += r.EnumESVs
	}
	return total
}

// Table6Markdown renders the GP-precision table (Table 6).
func Table6Markdown(rows []PrecisionRow) string {
	var out [][]string
	for _, r := range append(rows, PrecisionTotals(rows)) {
		out = append(out, []string{
			r.Car, fmt.Sprint(r.FormulaESVs), fmt.Sprint(r.CorrectGP),
			pct(r.CorrectGP, r.FormulaESVs), fmt.Sprint(r.DomainGP), fmt.Sprint(r.EnumESVs),
		})
	}
	return markdownTable([]string{"Car", "#ESV (formula)", "#Correct ESV", "Precision", "#Correct on domain", "#ESV (Enum)"}, out)
}

// Table10Markdown renders the baseline-precision table (Table 10).
func Table10Markdown(rows []PrecisionRow) string {
	var out [][]string
	for _, r := range append(rows, PrecisionTotals(rows)) {
		out = append(out, []string{
			r.Car, fmt.Sprint(r.FormulaESVs),
			fmt.Sprint(r.CorrectLinear), fmt.Sprint(r.CorrectPoly),
		})
	}
	return markdownTable([]string{"Car", "#ESV (formula)", "#Correct ESV (Linear Reg)", "#Correct ESV (Polynomial)"}, out)
}

// --- Table 7: dashboard validation ---

// Table7Row mirrors one row of Table 7.
type Table7Row struct {
	Car     string
	ESV     string
	Formula string
	Same    bool
}

// Table7 validates recovered formulas against the instrument cluster: the
// dashboard shows the same physical signal the proprietary stream encodes,
// so decoding captured bytes through the inferred formula must reproduce
// the dashboard value. The paper uses cars F, K, L and R.
func Table7(runs []*CarRun) []Table7Row {
	wanted := map[string]string{
		"Car F": "Engine speed",
		"Car K": "Engine speed",
		"Car L": "Coolant temperature",
		"Car R": "Engine speed",
	}
	var rows []Table7Row
	for _, run := range runs {
		esvName, ok := wanted[run.Profile.Car]
		if !ok {
			continue
		}
		row := Table7Row{Car: run.Profile.Car, ESV: esvName}
		byKey := map[reverser.StreamKey]reverser.StreamData{}
		for _, sd := range run.Streams {
			byKey[sd.Key] = sd
		}
		for _, esv := range run.Result.ESVs {
			if esv.Label != esvName || esv.Key.Proto == "OBD" || esv.Formula == nil {
				continue
			}
			row.Formula = esv.FormulaString()
			// The dashboard signal backs the matching OBD PID; compare the
			// formula's decode of observed bytes against the dashboard's
			// own decode (ground truth), which is what pointing a camera
			// at the cluster measures.
			truth, ok := TruthFor(run.Vehicle, esv.Key)
			sd := byKey[esv.Key]
			if ok && sd.Dataset != nil {
				row.Same = FormulaCorrect(esv.Formula, truth, sd.Dataset.X)
			}
			break
		}
		rows = append(rows, row)
	}
	return rows
}

// Table7Markdown renders Table 7.
func Table7Markdown(rows []Table7Row) string {
	var out [][]string
	for _, r := range rows {
		same := "✓"
		if !r.Same {
			same = "✗"
		}
		out = append(out, []string{r.Car, r.ESV, r.Formula, same})
	}
	return markdownTable([]string{"Vehicle", "ESV on dashboard", "Formula (system output)", "Same"}, out)
}

// --- Table 8: inference time ---

// Table8Row mirrors one row of Table 8 (seconds per formula), extended
// with the compiled GP engine's scoring counters so the report shows
// where the evaluation budget actually went.
type Table8Row struct {
	Protocol  string
	GPSeconds float64
	LRSeconds float64
	PFSeconds float64
	// GPEvaluations counts fitness evaluations the run requested;
	// GPCacheHitRate is the fraction served by the engine's
	// cross-generation fitness cache rather than the compiled VM.
	GPEvaluations  int
	GPCacheHitRate float64
}

// Table8 measures the wall-clock cost of inferring one formula with each
// algorithm, on representative UDS (one-variable) and KWP (two-variable)
// datasets.
func Table8(opt Options) []Table8Row {
	cfg := opt.reverserConfig().GP
	mkUDS := func() *gp.Dataset {
		d := &gp.Dataset{}
		for x := 0.0; x <= 255; x += 4 {
			d.X = append(d.X, []float64{x})
			d.Y = append(d.Y, 0.75*x-48)
		}
		return d
	}
	mkKWP := func() *gp.Dataset {
		d := &gp.Dataset{}
		for x0 := 200.0; x0 <= 250; x0 += 10 {
			for x1 := 0.0; x1 <= 255; x1 += 16 {
				d.X = append(d.X, []float64{x0, x1})
				d.Y = append(d.Y, x0*x1/5)
			}
		}
		return d
	}
	measure := func(d *gp.Dataset) Table8Row {
		var row Table8Row
		// GP cost is measured without early stopping so the budget matches
		// the paper's "30 generations × 1000 programs" accounting.
		gpCfg := cfg
		gpCfg.StopFitness = -1
		start := time.Now() //dplint:allow determinism Table 8 *measures* wall time
		gpRes, err := gp.Run(d, gpCfg)
		if err != nil {
			panic(fmt.Sprintf("table 8 gp run: %v", err))
		}
		row.GPSeconds = time.Since(start).Seconds() //dplint:allow determinism measured quantity
		row.GPEvaluations = gpRes.Evaluations
		if gpRes.Evaluations > 0 {
			row.GPCacheHitRate = float64(gpRes.CacheHits) / float64(gpRes.Evaluations)
		}
		start = time.Now() //dplint:allow determinism Table 8 measures wall time
		if _, err := regress.LinearFit(d); err != nil {
			panic(fmt.Sprintf("table 8 linear fit: %v", err))
		}
		row.LRSeconds = time.Since(start).Seconds() //dplint:allow determinism measured quantity
		start = time.Now()                          //dplint:allow determinism Table 8 measures wall time
		if _, err := regress.PolyFit(d, 2); err != nil {
			panic(fmt.Sprintf("table 8 poly fit: %v", err))
		}
		row.PFSeconds = time.Since(start).Seconds() //dplint:allow determinism measured quantity
		return row
	}
	uds := measure(mkUDS())
	uds.Protocol = "UDS"
	kwpRow := measure(mkKWP())
	kwpRow.Protocol = "KWP 2000"
	return []Table8Row{uds, kwpRow}
}

// Table8Markdown renders Table 8.
func Table8Markdown(rows []Table8Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Protocol,
			fmt.Sprintf("%.4f", r.GPSeconds),
			fmt.Sprintf("%.6f", r.LRSeconds),
			fmt.Sprintf("%.6f", r.PFSeconds),
			fmt.Sprintf("%d", r.GPEvaluations),
			fmt.Sprintf("%.1f%%", 100*r.GPCacheHitRate),
		})
	}
	return markdownTable([]string{
		"Protocol", "Genetic Programming (s)", "Linear Regression (s)",
		"Polynomial Curve Fitting (s)", "GP evaluations", "GP cache hits",
	}, out)
}

// --- Table 9: frame-type mix ---

// Table9Row mirrors one row of Table 9.
type Table9Row struct {
	Protocol string
	Single   int
	Multi    int
	Control  int
	Total    int
}

// Table9 measures the frame mix of UDS traffic (Car A) and KWP traffic
// (Cars B and C), reproducing the paper's single/multi split. For VW TP
// 2.0, "single" is the paper's last-frame count and "multi" the
// must-wait-for-more count.
func Table9(runs []*CarRun) []Table9Row {
	var uds, kwpRow Table9Row
	uds.Protocol = "UDS"
	kwpRow.Protocol = "KWP 2000"
	for _, run := range runs {
		switch run.Profile.Car {
		case "Car A":
			s := run.Result.Stats
			uds.Single += s.ISOTPSingle
			uds.Multi += s.ISOTPMulti()
			uds.Control += s.ISOTPFlowControl
			uds.Total += s.ISOTPSingle + s.ISOTPMulti() + s.ISOTPFlowControl
		case "Car B", "Car C":
			s := run.Result.Stats
			kwpRow.Single += s.VWTPLast
			kwpRow.Multi += s.VWTPWaiting
			kwpRow.Control += s.VWTPControl
			kwpRow.Total += s.VWTPLast + s.VWTPWaiting
		}
	}
	return []Table9Row{uds, kwpRow}
}

// Table9Markdown renders Table 9.
func Table9Markdown(rows []Table9Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Protocol,
			fmt.Sprintf("%d (%s)", r.Single, pct(r.Single, r.Total)),
			fmt.Sprintf("%d (%s)", r.Multi, pct(r.Multi, r.Total)),
			fmt.Sprint(r.Total),
		})
	}
	return markdownTable([]string{"Protocol", "# Single/Last Frames", "# Multi Frames", "# Total"}, out)
}
