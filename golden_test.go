package repro

// The golden pin of the science: the reduced-scale experiment (benchSpec:
// 3 trials × 300 tasks on the paper's cluster) is deterministic, so every
// figure row's median missed deadlines and mean energy are compared with
// == against committed constants. A PR that moves any of them must update
// the table below and say why in CHANGES.md / EXPERIMENTS.md.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/sched"
	"repro/internal/sim"
)

// goldenRow is one pinned variant: where it appears, its median missed
// deadlines over the trials, and its mean on-time completions and consumed
// energy per trial (the mean moves when any single trial does, which the
// median of three can hide).
type goldenRow struct {
	where      string
	medMissed  float64
	meanOnTime float64
	meanEnergy float64
}

// goldenFigures pins Figures 2–6 under the production ρ path, then LL and
// Random en+rob under the exact double-sum oracle (sim.Config.ExactRho).
var goldenFigures = []goldenRow{
	{"fig2/none", 77, 220, 2.5827210610074446e+07},
	{"fig2/en", 62, 237.66666666666666, 2.5827210610074446e+07},
	{"fig2/rob", 77, 220, 2.5827210610074446e+07},
	{"fig2/en+rob", 62, 237.33333333333334, 2.5827210610074446e+07},
	{"fig3/none", 76, 222.66666666666666, 2.5827210610074446e+07},
	{"fig3/en", 65, 235.33333333333334, 2.5827210610074446e+07},
	{"fig3/rob", 76, 222.66666666666666, 2.5827210610074446e+07},
	{"fig3/en+rob", 65, 235.33333333333334, 2.5827210610074446e+07},
	{"fig4/none", 112, 189, 2.5827210610074446e+07},
	{"fig4/en", 69, 230.33333333333334, 2.5827210610074446e+07},
	{"fig4/rob", 112, 189, 2.5827210610074446e+07},
	{"fig4/en+rob", 69, 230.33333333333334, 2.5827210610074446e+07},
	{"fig5/none", 139, 166.66666666666666, 2.5827210610074446e+07},
	{"fig5/en", 122, 177.33333333333334, 2.5827210610074446e+07},
	{"fig5/rob", 84, 214.66666666666666, 2.5827210610074446e+07},
	{"fig5/en+rob", 50, 250.66666666666666, 2.5827210610074446e+07},
	{"fig6/LL", 69, 230.33333333333334, 2.5827210610074446e+07},
	{"fig6/SQ", 62, 237.33333333333334, 2.5827210610074446e+07},
	{"fig6/MECT", 65, 235.33333333333334, 2.5827210610074446e+07},
	{"fig6/Random", 50, 250.66666666666666, 2.5827210610074446e+07},
	{"exact/LL", 70, 231, 2.5827210610074446e+07},
	{"exact/Random", 38, 256.3333333333333, 2.5827210610074446e+07},
}

// goldenSummary pins the §VII improvement table (heuristic, none, en+rob,
// improvement %), as rendered.
var goldenSummary = []string{
	"SQ 77.0 62.0 19.48",
	"MECT 76.0 65.0 14.47",
	"LL 112.0 69.0 38.39",
	"Random 139.0 50.0 64.03",
}

func TestGoldenFigures(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constants are pinned on amd64; %s fuses multiply-add and rounds differently", runtime.GOARCH)
	}
	env, err := experiment.Build(benchSpec())
	if err != nil {
		t.Fatal(err)
	}
	var got []goldenRow
	for n := 2; n <= 6; n++ {
		f, err := env.Figure(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range f.Rows {
			label := r.FilterLabel
			if label == "" {
				label = r.Label
			}
			got = append(got, goldenRow{f.ID + "/" + label, r.Summary.Median, r.MeanOnTime, r.MeanEnergy})
		}
	}
	for _, h := range []sched.Heuristic{sched.LightestLoad{}, sched.Random{}} {
		m := &sched.Mapper{Heuristic: h, Filters: sched.EnergyAndRobustness.Filters()}
		r, err := env.RunConfigured(m, "en+rob", func(c *sim.Config) { c.ExactRho = true })
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, goldenRow{"exact/" + h.Name(), r.Summary.Median, r.MeanOnTime, r.MeanEnergy})
	}
	bad := len(got) != len(goldenFigures)
	for i := 0; !bad && i < len(got); i++ {
		bad = got[i] != goldenFigures[i]
	}
	if bad {
		var b strings.Builder
		for _, r := range got {
			fmt.Fprintf(&b, "\t{%q, %v, %v, %v},\n", r.where, r.medMissed, r.meanOnTime, r.meanEnergy)
		}
		t.Errorf("figure rows moved; measured (paste over goldenFigures only with a documented reason):\n%s", b.String())
	}

	tab, err := env.SummaryTable()
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, r := range tab.Rows {
		rows = append(rows, strings.Join(r, " "))
	}
	if strings.Join(rows, "\n") != strings.Join(goldenSummary, "\n") {
		t.Errorf("summary table moved; measured:\n\t%q", rows)
	}
}
